package obs

import (
	"sync/atomic"
	"unsafe"
)

// counterShards is the fan-out of a Counter. Eight cache-line-padded
// cells keep concurrent writers (wire daemon workers, sim processes,
// scrape threads) off each other's cache lines; Value folds the shards.
const counterShards = 8

type counterShard struct {
	v int64
	_ [56]byte // pad to a 64-byte cache line
}

// Counter is a monotonically increasing, write-sharded atomic counter.
// Inc/Add are allocation-free and safe for concurrent use; Value is a
// point-in-time fold over the shards (each shard read is atomic, the
// fold itself is not a snapshot barrier — fine for monotone counters).
type Counter struct {
	shards [counterShards]counterShard
}

// shardIndex spreads writers across shards without goroutine IDs:
// the address of a stack variable differs per goroutine stack, and a
// multiplicative hash of it picks a shard. The local does not escape,
// so this costs no allocation.
func shardIndex() int {
	var b byte
	h := uintptr(unsafe.Pointer(&b))
	h ^= h >> 13
	h *= 0x9E3779B97F4A7C15
	return int(h>>60) & (counterShards - 1)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n to the counter. n must be non-negative for the exposition
// semantics to hold; this is not checked on the hot path.
func (c *Counter) Add(n int64) {
	atomic.AddInt64(&c.shards[shardIndex()].v, n)
}

// Value returns the current total across all shards.
func (c *Counter) Value() int64 {
	var t int64
	for i := range c.shards {
		t += atomic.LoadInt64(&c.shards[i].v)
	}
	return t
}

// Gauge is an instantaneous value: free-list depth, window occupancy,
// last-poll timestamp. All operations are single atomics.
type Gauge struct {
	v int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { atomic.StoreInt64(&g.v, n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { atomic.AddInt64(&g.v, n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return atomic.LoadInt64(&g.v) }

// Histogram is a fixed-bucket histogram over int64 observations.
// Bounds are inclusive upper edges in ascending order; an implicit
// +Inf bucket catches the rest. Observe is allocation-free: a linear
// scan over the (small, fixed) bound slice plus two atomics. The count
// is not kept apart from the buckets: it is the +Inf bucket's cumulative
// value, so the two can never disagree.
type Histogram struct {
	bounds []int64
	counts []int64 // len(bounds)+1, last is +Inf
	sum    int64
}

func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	atomic.AddInt64(&h.counts[i], 1)
	atomic.AddInt64(&h.sum, v)
}

// Count returns the number of observations: the +Inf bucket's
// cumulative value, the fold Buckets ends with.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += atomic.LoadInt64(&h.counts[i])
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return atomic.LoadInt64(&h.sum) }

// Buckets returns cumulative counts per bound (ascending), ending with
// the +Inf bucket, matching Prometheus bucket semantics.
func (h *Histogram) Buckets() []int64 {
	out := make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += atomic.LoadInt64(&h.counts[i])
		out[i] = cum
	}
	return out
}
