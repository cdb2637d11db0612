package pig

import (
	"cmp"
	"slices"
	"strings"

	"spongefiles/internal/simtime"
)

// TopK returns a UDF computing the top-k most frequent terms in a nested
// term-list field, as in the paper's Frequent Anchortext query. The
// first pass runs a bounded counter table that prunes low-count entries
// when it overflows (a SpaceSaving-style sketch) to pick candidates; a
// second pass over the bag counts the candidates exactly (the UDFs "make
// multiple passes over the data", §4.2.1). Output tuples are
// (term, count), most frequent first, ties in term order.
func TopK(termField, k, tableCap int) UDF {
	if tableCap < 8*k {
		tableCap = 8 * k
	}
	return func(ctx *UDFContext, group string, bag *Bag, emit func(Tuple)) {
		// eachTerm runs one pass over the bag's term lists.
		eachTerm := func(fn func(term string)) {
			it := bag.Iterate(ctx.P)
			for {
				t, ok := it.Next(ctx.P)
				if !ok {
					return
				}
				ctx.Task.ChargeCPU(2 * simtime.Microsecond)
				terms := t.Nested(termField)
				for i, n := 0, terms.Len(); i < n; i++ {
					fn(terms.String(i))
				}
			}
		}
		// Pass 1: approximate counts under a bounded table.
		counts := newTermCounts(tableCap)
		eachTerm(func(term string) {
			counts.add(term)
			if len(counts.all) > tableCap {
				counts.prune(tableCap / 2)
			}
		})
		// Pass 2: exact counts for the surviving candidates.
		for i := range counts.all {
			counts.all[i].n = 0
		}
		eachTerm(func(term string) {
			if i, cand := counts.slot[term]; cand {
				counts.all[i].n++
			}
		})
		counts.rank()
		for _, e := range counts.all[:min(k, len(counts.all))] {
			emit(Tuple{e.term, e.n})
		}
	}
}

// termCount is one counter of the table.
type termCount struct {
	term string
	n    int64
}

// termArenaChunk is the size of one chunk of a termCounts arena.
const termArenaChunk = 4 << 10

// termCounts is TopK's counter table. The bag hands out terms as views
// into buffers it reuses, so a term is copied once, when it enters the
// table, onto the end of an append-only arena, and the table keeps a
// view of that copy. Arena bytes are never rewritten: a full chunk is
// left to the collector, which frees it once no kept term points into
// it, so no more than one chunk per kept term, plus the current one,
// stays pinned. slot is only ever assigned arena views; a bag view may
// read it but never key it.
type termCounts struct {
	all   []termCount
	slot  map[string]int // term → index in all
	arena []byte         // the current chunk; only ever appended to
}

func newTermCounts(tableCap int) *termCounts {
	return &termCounts{
		all:  make([]termCount, 0, tableCap+1),
		slot: make(map[string]int, tableCap+1),
	}
}

// add counts one occurrence of term.
func (c *termCounts) add(term string) {
	if i, ok := c.slot[term]; ok {
		c.all[i].n++
		return
	}
	term = c.keep(term)
	c.slot[term] = len(c.all)
	c.all = append(c.all, termCount{term, 1})
}

// keep copies term onto the arena and returns a view of the copy. A
// term that does not fit starts a fresh chunk, sized to the term if it
// is longer than termArenaChunk.
func (c *termCounts) keep(term string) string {
	if len(term) > cap(c.arena)-len(c.arena) {
		c.arena = make([]byte, 0, max(termArenaChunk, len(term)))
	}
	off := len(c.arena)
	c.arena = append(c.arena, term...)
	return viewString(c.arena[off:])
}

// rank orders the counters most frequent first, ties by term, so the
// order never depends on map iteration or on when a term arrived.
func (c *termCounts) rank() {
	slices.SortFunc(c.all, func(a, b termCount) int {
		if a.n != b.n {
			return cmp.Compare(b.n, a.n)
		}
		return strings.Compare(a.term, b.term)
	})
	for i, e := range c.all {
		c.slot[e.term] = i
	}
}

// prune drops the lowest-ranked counters until at most keep remain.
func (c *termCounts) prune(keep int) {
	if len(c.all) <= keep {
		return
	}
	c.rank()
	for _, e := range c.all[keep:] {
		delete(c.slot, e.term)
	}
	clear(c.all[keep:])
	c.all = c.all[:keep]
}

// Quantiles returns a UDF computing the q-quantiles of a float field by
// traversing an ordered bag in sorted order, as the paper's ad-hoc
// SpamQuantiles UDF does. The query must set SortKey to the same field.
// Output is one tuple (quantileIndex, value) per quantile boundary.
func Quantiles(scoreField, q int) UDF {
	return func(ctx *UDFContext, group string, bag *Bag, emit func(Tuple)) {
		n := bag.Len()
		if n == 0 {
			return
		}
		// Positions of the q+1 boundaries (min, q-1 inner cuts, max).
		want := make([]int64, 0, q+1)
		for i := 0; i <= q; i++ {
			pos := i * int(n-1) / q
			want = append(want, int64(pos))
		}
		it := bag.Iterate(ctx.P)
		var idx int64
		wi := 0
		for {
			t, ok := it.Next(ctx.P)
			if !ok {
				break
			}
			ctx.Task.ChargeCPU(simtime.Microsecond)
			for wi < len(want) && want[wi] == idx {
				emit(Tuple{int64(wi), t.Float(scoreField)})
				wi++
			}
			idx++
		}
	}
}
