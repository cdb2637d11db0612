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
// count per server, indexed by node id and sized at construction
// (make(FreeTable, nodes)) — membership is static, so no server arrives
// later. It has no clock, no lock, no I/O and no metrics — its driver,
// Tracker, supplies those and calls Set — so the ranking can be held to
// a model without a simulator (TestFreeTableProperties). A server that
// goes away advertises zero.
type FreeTable []int

// Set records k's free count as the driver observed it: a poll result,
// the seed at deployment, or zero for a server that is unreachable or
// dead.
func (t FreeTable) Set(k, free int) { t[k] = free }

// Query returns the servers advertising free chunks, most free first,
// key ascending on ties. One allocation: File.Create asks once per
// SpongeFile.
func (t FreeTable) Query() []FreeRow {
	n := 0
	for _, free := range t {
		if free > 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]FreeRow, 0, n)
	for k, free := range t {
		if free > 0 {
			out = append(out, FreeRow{Key: k, Free: free})
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

// Free returns k's advertised count, zero for a server never set.
func (t FreeTable) Free(k int) int { return t[k] }
