package sponge

import (
	"cmp"
	"slices"
)

// FreeRow is one server's entry in a tracker's table, and the one row
// type that crosses the tracker API: a query answer and a handoff
// payload are both slices of it. Key is the server's node id, Free is
// its advertised free-chunk count, and Seq is the highest delta
// sequence the tracker has acked from it.
type FreeRow struct {
	Key  int
	Free int
	Seq  uint64
}

// FreeTable is the memory tracking server's state (§3.1.1) and the
// rules that keep it. It has no clock, no lock, no I/O and no metrics —
// its driver, Tracker, supplies those and calls the transitions below —
// so the rules can be held to a model without a simulator
// (TestFreeTableProperties); the zero value is an empty follower at
// epoch 0.
//
// Rows are kept sorted by key, so State is deterministic and a lookup
// is a binary search; rows are never deleted (a server that goes away
// advertises zero).
type FreeTable struct {
	rows   []FreeRow
	epoch  uint64
	leader bool
	// Pushed reports applied to a row, and dropped as out of sequence.
	applied, stale int64
}

// find returns where k's row is, or where it would be inserted.
func (t *FreeTable) find(k int) (int, bool) {
	return slices.BinarySearchFunc(t.rows, k, func(r FreeRow, k int) int { return cmp.Compare(r.Key, k) })
}

// row returns the entry for k, inserting a zero one if k is new.
func (t *FreeTable) row(k int) *FreeRow {
	i, ok := t.find(k)
	if !ok {
		t.rows = slices.Insert(t.rows, i, FreeRow{Key: k})
	}
	return &t.rows[i]
}

// Set records k's free count as the driver observed it: a poll result,
// a join, or zero for a server that is unreachable, draining or gone.
func (t *FreeTable) Set(k, free int) { t.row(k).Free = free }

// Delta applies one sequence-numbered report pushed by k. A report at
// or below k's acked sequence is a duplicate or arrived out of order —
// the table already reflects newer truth — and is dropped as stale.
// Otherwise the ack advances, and the count is installed when the
// driver still advertises k: a drained server's late report must not
// put it back on the free list, but must still be acked so its
// duplicates stay stale. Reports whether the count was installed.
func (t *FreeTable) Delta(k int, seq uint64, free int, advertise bool) (applied bool) {
	r := t.row(k)
	if seq <= r.Seq {
		t.stale++
		return false
	}
	r.Seq = seq
	if !advertise {
		return false
	}
	r.Free = free
	t.applied++
	return true
}

// State returns the leadership term and a copy of every row, key
// ascending — the payload a leader hands its standbys.
func (t *FreeTable) State() (epoch uint64, rows []FreeRow) {
	return t.epoch, slices.Clone(t.rows)
}

// Install takes a leader's handed-off state: every pushed row replaces
// the table's row for that key, and the term becomes the leader's. A
// leader refuses (it follows nobody — the refusal tells a stale
// ex-leader its term is over), as does a table already on a later term
// than the push. Rows the push does not mention are kept, so servers a
// follower was told about directly survive until a leader reports them.
func (t *FreeTable) Install(epoch uint64, rows []FreeRow) (ok bool) {
	if t.leader || epoch < t.epoch {
		return false
	}
	t.epoch = epoch
	for _, r := range rows {
		*t.row(r.Key) = r
	}
	return true
}

// Promote makes the table a leader's under the next term; everything it
// holds — counts and acked sequences — carries over, which is what
// makes a standby's takeover warm.
func (t *FreeTable) Promote() {
	t.leader = true
	t.epoch++
}

// Query returns the servers advertising free chunks, most free first,
// key ascending on ties. The order is total, so the answer does not
// depend on how the rows are stored. One allocation: File.Create asks
// once per SpongeFile.
func (t *FreeTable) Query() []FreeRow {
	n := 0
	for i := range t.rows {
		if t.rows[i].Free > 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]FreeRow, 0, n)
	for _, r := range t.rows {
		if r.Free > 0 {
			out = append(out, r)
		}
	}
	slices.SortFunc(out, func(a, b FreeRow) int {
		if c := cmp.Compare(b.Free, a.Free); c != 0 {
			return c
		}
		return cmp.Compare(a.Key, b.Key)
	})
	return out
}

// Total sums the advertised free chunks across all servers.
func (t *FreeTable) Total() int {
	sum := 0
	for i := range t.rows {
		sum += t.rows[i].Free
	}
	return sum
}

// Free returns k's advertised count, zero for an unknown server.
func (t *FreeTable) Free(k int) int {
	if i, ok := t.find(k); ok {
		return t.rows[i].Free
	}
	return 0
}

// Epoch returns the leadership term the table is held under.
func (t *FreeTable) Epoch() uint64 { return t.epoch }

// Leader reports whether the table has been promoted.
func (t *FreeTable) Leader() bool { return t.leader }

// DeltaStats returns how many pushed reports were applied and how many
// were dropped as stale.
func (t *FreeTable) DeltaStats() (applied, stale int64) { return t.applied, t.stale }

// DeltaSource is the reporting half of delta dissemination, one per
// sponge server: report only when the free count differs from the one a
// leader is known to hold, and number every attempt afresh, so a report
// that was lost (or raced a failover and landed twice) deduplicates on
// the tracker's acked sequence. The zero value reports on its first
// Next.
type DeltaSource struct {
	seq   uint64
	last  int
	known bool // a leader acked last and nothing has been sent since
}

// Next returns the sequence to push free under, or send=false when a
// leader already has this count. An attempt in flight may or may not
// land, so until Acked nothing is known and the next call sends again.
func (d *DeltaSource) Next(free int) (seq uint64, send bool) {
	if d.known && free == d.last {
		return 0, false
	}
	d.known = false
	d.seq++
	return d.seq, true
}

// Acked records that a live leader took free — applied or deduplicated,
// either way it holds that state.
func (d *DeltaSource) Acked(free int) { d.last, d.known = free, true }
