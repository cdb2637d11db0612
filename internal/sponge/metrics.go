package sponge

import (
	"strconv"

	"spongefiles/internal/obs"
)

// kindNames are the exposition labels for the allocator chain, indexed
// by ChunkKind.
var kindNames = [4]string{"local_mem", "remote_mem", "local_disk", "remote_fs"}

// svcMetrics holds every pre-registered handle the service's hot paths
// mutate. All handles are resolved once at Start — the spill and read
// paths never touch the registry map, only atomic counters, gauges and
// histogram cells, keeping the steady state at zero allocations and
// zero virtual-time/RNG impact (the seed-golden baselines stay
// bit-identical with metrics on). These handles are the service's one
// record of what it did: no tracker, server or pool field keeps a
// second copy of a count.
type svcMetrics struct {
	reg *obs.Registry

	// Allocator-chain outcomes: one counter per landing medium, plus
	// the fallback reasons that pushed a chunk down the chain.
	spill               [4]*obs.Counter
	fallbackLocalFull   *obs.Counter
	fallbackRemoteExhst *obs.Counter
	blacklists          *obs.Counter

	// Transport retries by operation, and chunks lost for good.
	retriesAlloc *obs.Counter
	retriesRead  *obs.Counter
	retriesPoll  *obs.Counter
	chunksLost   *obs.Counter

	// Readahead window behaviour.
	raHits      *obs.Counter
	raInline    *obs.Counter
	raSkips     *obs.Counter
	raOccupancy *obs.Histogram

	// Tracker health.
	trackerPolls       *obs.Counter
	trackerQueries     *obs.Counter
	trackerFailovers   *obs.Counter
	trackerLastPoll    *obs.Gauge
	trackerLeaderEpoch *obs.Gauge
	trackerUpdatesFull *obs.Counter   // snapshot entries refreshed by polls
	trackerDrops       []*obs.Counter // per polled node

	// Node failure.
	membershipFails *obs.Counter
	peerRevocations *obs.Counter

	// Per-node server counters.
	remoteAllocs     []*obs.Counter
	remoteAllocFails []*obs.Counter
	gcFreed          []*obs.Counter
}

func newSvcMetrics(reg *obs.Registry, nnodes int) *svcMetrics {
	m := &svcMetrics{
		reg:                 reg,
		fallbackLocalFull:   reg.Counter("sponge_spill_fallback_total", obs.L("reason", "local_full")),
		fallbackRemoteExhst: reg.Counter("sponge_spill_fallback_total", obs.L("reason", "remote_exhausted")),
		blacklists:          reg.Counter("sponge_candidates_blacklisted_total"),
		retriesAlloc:        reg.Counter("sponge_retries_total", obs.L("op", "alloc")),
		retriesRead:         reg.Counter("sponge_retries_total", obs.L("op", "read")),
		retriesPoll:         reg.Counter("sponge_retries_total", obs.L("op", "poll")),
		chunksLost:          reg.Counter("sponge_chunks_lost_total"),
		raHits:              reg.Counter("sponge_ra_window_hits_total"),
		raInline:            reg.Counter("sponge_ra_inline_fetch_total"),
		raSkips:             reg.Counter("sponge_ra_skips_total"),
		raOccupancy:         reg.Histogram("sponge_ra_occupancy", []int64{1, 2, 4, 8, 16}),
		trackerPolls:        reg.Counter("sponge_tracker_polls_total"),
		trackerQueries:      reg.Counter("sponge_tracker_queries_total"),
		trackerFailovers:    reg.Counter("sponge_tracker_failovers_total"),
		trackerLastPoll:     reg.Gauge("sponge_tracker_last_poll_ns"),
		trackerLeaderEpoch:  reg.Gauge("sponge_tracker_leader_epoch"),
		trackerUpdatesFull:  reg.Counter("sponge_tracker_updates_total", obs.L("kind", "full")),
		membershipFails:     reg.Counter("sponge_membership_changes_total", obs.L("kind", "fail")),
		peerRevocations:     reg.Counter("sponge_peer_revocations_total"),
	}
	for k, name := range kindNames {
		m.spill[k] = reg.Counter("sponge_spill_chunks_total", obs.L("kind", name))
	}
	for i := 0; i < nnodes; i++ {
		node := obs.L("node", strconv.Itoa(i))
		m.trackerDrops = append(m.trackerDrops, reg.Counter("sponge_tracker_poll_drops_total", node))
		m.remoteAllocs = append(m.remoteAllocs, reg.Counter("sponge_remote_allocs_total", node))
		m.remoteAllocFails = append(m.remoteAllocFails, reg.Counter("sponge_remote_alloc_fails_total", node))
		m.gcFreed = append(m.gcFreed, reg.Counter("sponge_gc_freed_chunks_total", node))
	}
	return m
}

// registerGauges wires the callback-backed gauges — pool depth and
// high-water per node, buffer-pool accounting — after the service's
// servers exist. GaugeFunc re-registration replaces the callback, so a
// registry shared across services reflects the latest service.
func (m *svcMetrics) registerGauges(s *Service) {
	for i, srv := range s.Servers {
		node := obs.L("node", strconv.Itoa(i))
		pool := srv.Pool()
		m.reg.GaugeFunc("sponge_pool_free_chunks", func() int64 {
			return int64(pool.Free())
		}, node)
		m.reg.GaugeFunc("sponge_pool_high_water", func() int64 {
			return int64(pool.Stats().HighWater)
		}, node)
		m.reg.GaugeFunc("sponge_pool_owner_tasks", func() int64 {
			return int64(pool.Stats().Owners)
		}, node)
		m.reg.GaugeFunc("sponge_pool_pinned_readers", func() int64 {
			return int64(pool.Stats().Pinned)
		}, node)
	}
	m.reg.GaugeFunc("sponge_buf_outstanding", func() int64 {
		return s.BufPoolStats().Outstanding()
	})
	m.reg.GaugeFunc("sponge_buf_cached", func() int64 {
		return int64(s.BufPoolStats().Cached)
	})
}

// Metrics returns the service's registry: the one passed in
// ServiceConfig.Metrics, or the private registry created at Start.
func (s *Service) Metrics() *obs.Registry { return s.metrics.reg }
