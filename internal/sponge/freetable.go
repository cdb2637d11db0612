package sponge

import (
	"cmp"
	"slices"
)

// FreeRow is one server's entry in a tracker's table, and the one row
// type that crosses the tracker API: a query answer is a slice of it.
// Key is the server's node id and Free its advertised free-chunk count.
type FreeRow struct {
	Key  int
	Free int
}

// FreeTable is the memory tracking server's state (§3.1.1): one free
// count per server. It has no clock, no lock, no I/O and no metrics —
// its driver, Tracker, supplies those and calls Set — so the ranking
// can be held to a model without a simulator (TestFreeTableProperties);
// the zero value is an empty table.
//
// Rows are kept sorted by key, so a lookup is a binary search; rows are
// never deleted (a server that goes away advertises zero).
type FreeTable struct {
	rows []FreeRow
}

// find returns where k's row is, or where it would be inserted.
func (t *FreeTable) find(k int) (int, bool) {
	return slices.BinarySearchFunc(t.rows, k, func(r FreeRow, k int) int { return cmp.Compare(r.Key, k) })
}

// Set records k's free count as the driver observed it: a poll result,
// the seed at deployment, or zero for a server that is unreachable or
// dead.
func (t *FreeTable) Set(k, free int) {
	i, ok := t.find(k)
	if !ok {
		t.rows = slices.Insert(t.rows, i, FreeRow{Key: k})
	}
	t.rows[i].Free = free
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

// Free returns k's advertised count, zero for an unknown server.
func (t *FreeTable) Free(k int) int {
	if i, ok := t.find(k); ok {
		return t.rows[i].Free
	}
	return 0
}
