package sponge

import (
	"math/rand"
	"slices"
	"testing"
)

// tableModel is the reference FreeTable is compared against — by the
// property test directly, by the tracker script through the simulated
// tracker: the same rules over plain maps, written the obvious way.
type tableModel struct {
	free           map[int]int
	seq            map[int]uint64
	epoch          uint64
	leader         bool
	applied, stale int64
}

func newTableModel() *tableModel {
	return &tableModel{free: map[int]int{}, seq: map[int]uint64{}}
}

func (m *tableModel) delta(k int, seq uint64, free int, advertise bool) bool {
	if _, ok := m.free[k]; !ok {
		m.free[k] = 0 // a report creates the row either way
	}
	if seq <= m.seq[k] {
		m.stale++
		return false
	}
	m.seq[k] = seq
	if !advertise {
		return false
	}
	m.free[k] = free
	m.applied++
	return true
}

func (m *tableModel) install(epoch uint64, rows []FreeRow) bool {
	if m.leader || epoch < m.epoch {
		return false
	}
	m.epoch = epoch
	for _, r := range rows {
		m.free[r.Key], m.seq[r.Key] = r.Free, r.Seq
	}
	return true
}

func (m *tableModel) promote() {
	m.epoch++
	m.leader = true
}

// rows is every row, free or not, in no order.
func (m *tableModel) rows() []FreeRow {
	var out []FreeRow
	for k, f := range m.free {
		out = append(out, FreeRow{Key: k, Free: f, Seq: m.seq[k]})
	}
	return out
}

func (m *tableModel) query() []FreeRow {
	out := slices.DeleteFunc(m.rows(), func(r FreeRow) bool { return r.Free == 0 })
	slices.SortFunc(out, func(a, b FreeRow) int {
		if a.Free != b.Free {
			return b.Free - a.Free
		}
		return a.Key - b.Key
	})
	return out
}

// TestFreeTableProperties drives a FreeTable with seeded random
// transitions and checks, after every one: an acked sequence never
// decreases; Query is free-only, sorted most-free-first with keys
// ascending on ties, and agrees with the model; a fresh follower that
// installs State() holds the same state; and a push the fencing rule
// refuses — any push to a leader, an older epoch to a follower —
// changes nothing.
func TestFreeTableProperties(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab FreeTable
		m := newTableModel()
		acked := map[int]uint64{}
		randRows := func() []FreeRow {
			rows := make([]FreeRow, rng.Intn(4))
			for i := range rows {
				rows[i] = FreeRow{Key: rng.Intn(8), Free: rng.Intn(5), Seq: uint64(rng.Intn(12))}
			}
			return rows
		}
		for step := 0; step < 400; step++ {
			k, free := rng.Intn(8), rng.Intn(5)
			switch op := rng.Intn(10); {
			case op < 3:
				tab.Set(k, free)
				m.free[k] = free
			case op < 7:
				seq, advertise := uint64(rng.Intn(12)), rng.Intn(4) > 0
				if applied := tab.Delta(k, seq, free, advertise); applied != m.delta(k, seq, free, advertise) {
					t.Fatalf("seed %d step %d: Delta(%d, seq %d, advertise %v) applied=%v with acked %d",
						seed, step, k, seq, advertise, applied, acked[k])
				}
			case op < 9:
				epoch, rows := uint64(rng.Intn(6)), randRows()
				before, beforeRows := tab.State()
				ok := tab.Install(epoch, rows)
				if ok != m.install(epoch, rows) {
					t.Fatalf("seed %d step %d: Install(epoch %d) on (leader %v, epoch %d) = %v",
						seed, step, epoch, m.leader, before, ok)
				}
				if !ok {
					after, afterRows := tab.State()
					if after != before || !slices.Equal(afterRows, beforeRows) {
						t.Fatalf("seed %d step %d: a refused push changed the table", seed, step)
					}
					break
				}
				for _, r := range rows {
					acked[r.Key] = 0 // a handoff may carry any sequence
				}
			default:
				if rng.Intn(8) > 0 {
					break // promotions are rare: most of a run is one term
				}
				tab.Promote()
				m.promote()
			}

			epoch, rows := tab.State()
			if epoch != m.epoch || tab.Epoch() != m.epoch || tab.Leader() != m.leader {
				t.Fatalf("seed %d step %d: (epoch %d, leader %v), want (%d, %v)",
					seed, step, epoch, tab.Leader(), m.epoch, m.leader)
			}
			if len(rows) != len(m.free) {
				t.Fatalf("seed %d step %d: %d rows, want %d", seed, step, len(rows), len(m.free))
			}
			total := 0
			for i, r := range rows {
				if i > 0 && rows[i-1].Key >= r.Key {
					t.Fatalf("seed %d step %d: State not key-ascending: %+v", seed, step, rows)
				}
				if r.Free != m.free[r.Key] || r.Seq != m.seq[r.Key] || tab.Free(r.Key) != r.Free {
					t.Fatalf("seed %d step %d: row %+v, want free %d seq %d", seed, step, r, m.free[r.Key], m.seq[r.Key])
				}
				if r.Seq < acked[r.Key] {
					t.Fatalf("seed %d step %d: key %d acked sequence fell %d -> %d", seed, step, r.Key, acked[r.Key], r.Seq)
				}
				acked[r.Key] = r.Seq
				total += r.Free
			}
			if a, s := tab.DeltaStats(); a != m.applied || s != m.stale {
				t.Fatalf("seed %d step %d: DeltaStats = (%d, %d), want (%d, %d)", seed, step, a, s, m.applied, m.stale)
			}
			if tab.Total() != total {
				t.Fatalf("seed %d step %d: Total = %d, want %d", seed, step, tab.Total(), total)
			}
			if got, want := tab.Query(), m.query(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: Query = %+v, want %+v", seed, step, got, want)
			}
			var follower FreeTable
			if !follower.Install(epoch, rows) {
				t.Fatalf("seed %d step %d: a fresh follower refused State()", seed, step)
			}
			if e, r := follower.State(); e != epoch || !slices.Equal(r, rows) {
				t.Fatalf("seed %d step %d: Install(State()) is not the identity: %+v vs %+v", seed, step, r, rows)
			}
		}
	}
}

// TestFreeTableQueryAllocatesOnce pins the answer at one allocation:
// File.Create asks once per SpongeFile, so Query's allocations are part
// of every spill's cost and of the benchmark's allocs_per_iter.
func TestFreeTableQueryAllocatesOnce(t *testing.T) {
	var tab FreeTable
	for k := 0; k < 40; k++ {
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

// TestDeltaSourceRetriesUntilAcked: a count is reported when it differs
// from the last acked one, every attempt under a fresh sequence, and an
// attempt nobody acked is made again.
func TestDeltaSourceRetriesUntilAcked(t *testing.T) {
	var d DeltaSource
	seq, send := d.Next(0)
	if !send || seq != 1 {
		t.Fatalf("first Next(0) = (%d, %v), want (1, true): a zero count is still news", seq, send)
	}
	if seq, send = d.Next(0); !send || seq != 2 {
		t.Fatalf("unacked Next(0) = (%d, %v), want a retry under sequence 2", seq, send)
	}
	d.Acked(0)
	if _, send = d.Next(0); send {
		t.Fatal("an acked, unchanged count was reported again")
	}
	if seq, send = d.Next(3); !send || seq != 3 {
		t.Fatalf("changed Next(3) = (%d, %v), want (3, true)", seq, send)
	}
	if seq, send = d.Next(0); !send || seq != 4 {
		t.Fatalf("Next(0) after an unacked 3 = (%d, %v): the tracker may hold either, so 0 must go out", seq, send)
	}
}
