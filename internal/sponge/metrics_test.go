package sponge

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"spongefiles/internal/obs"
	"spongefiles/internal/simtime"
)

// scrapeRig renders the rig's registry and parses it back, the same
// round trip a live scrape makes.
func scrapeRig(t *testing.T, r *testRig) map[string]int64 {
	t.Helper()
	samples, err := obs.ParseText(r.svc.Metrics().Text())
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	return samples
}

// metricOf reads one series from the service's registry, the one record
// of every count the service keeps.
func metricOf(t *testing.T, svc *Service, id string) int64 {
	t.Helper()
	v, ok := svc.Metrics().Lookup(id)
	if !ok {
		t.Errorf("series %s is not registered", id)
	}
	return v
}

// perNode reads one per-node series (labelled {node="i"}) for every node.
func perNode(t *testing.T, svc *Service, name string) []int64 {
	t.Helper()
	out := make([]int64, len(svc.Servers))
	for i := range out {
		out[i] = metricOf(t, svc, name+`{node="`+strconv.Itoa(i)+`"}`)
	}
	return out
}

// TestSpillCountersMatchFileStats: the allocator-outcome counters must
// agree exactly with the file's own placement accounting, kind by kind.
func TestSpillCountersMatchFileStats(t *testing.T) {
	r := newRig(t, 4, 2, nil)
	data := pattern(8*r.svc.ChunkReal(), 3)
	f := writeReadDelete(t, r, 0, data)
	st := f.Stats()
	samples := scrapeRig(t, r)
	for k, name := range kindNames {
		id := `sponge_spill_chunks_total{kind="` + name + `"}`
		if got := samples[id]; got != int64(st.ByKind[k]) {
			t.Errorf("%s = %d, want %d (FileStats %+v)", id, got, st.ByKind[k], st)
		}
	}
	if st.ByKind[RemoteMem] == 0 {
		t.Fatal("workload never spilled remotely; the test exercises nothing")
	}
	// Local pool exhaustion pushed chunks down the chain, so the
	// fallback reason must be recorded.
	if samples[`sponge_spill_fallback_total{reason="local_full"}`] == 0 {
		t.Error("local_full fallbacks went uncounted")
	}
}

// TestReadaheadCountersCoverEveryChunk: on a sequential read-back every
// chunk is served either from the readahead window or inline, never
// both, so the two counters must sum to the chunk count.
func TestReadaheadCountersCoverEveryChunk(t *testing.T) {
	r := newRig(t, 4, 2, func(c *ServiceConfig) { c.ReadAheadDepth = 4 })
	data := pattern(8*r.svc.ChunkReal(), 5)
	f := writeReadDelete(t, r, 0, data)
	st := f.Stats()
	samples := scrapeRig(t, r)
	hits := samples["sponge_ra_window_hits_total"]
	inline := samples["sponge_ra_inline_fetch_total"]
	if hits+inline != int64(st.Chunks) {
		t.Fatalf("window hits %d + inline %d != %d chunks", hits, inline, st.Chunks)
	}
	if hits == 0 {
		t.Error("depth-4 window produced no hits on a remote-heavy file")
	}
	// Local chunks are skipped by the window, so with a mixed file the
	// skip counter moves too.
	if st.ByKind[LocalMem] > 0 && samples["sponge_ra_skips_total"] == 0 {
		t.Error("local chunks in a windowed read left no skip marks")
	}
	if samples["sponge_ra_occupancy_count"] != int64(st.Chunks) {
		t.Errorf("occupancy histogram saw %d observations, want %d",
			samples["sponge_ra_occupancy_count"], st.Chunks)
	}
}

// TestSeriesCatalog pins the metric names a service exposes after one
// remote spill, read-back, delete and GC sweep through a fault wrapper.
// The registry is the one record of what the service did, so a series
// renamed or dropped here is a record lost: change the list on purpose.
func TestSeriesCatalog(t *testing.T) {
	r := newRig(t, 3, 2, nil)
	r.svc.SetTransport(NewFaultTransport(r.svc.Transport(), FaultConfig{Seed: 1}))
	f := writeReadDelete(t, r, 0, pattern(4*r.svc.ChunkReal(), 9))
	if f.Stats().ByKind[RemoteMem] == 0 {
		t.Fatal("nothing spilled remotely; the catalog run exercises nothing")
	}
	r.sim.Spawn("gc", func(p *simtime.Proc) { p.Sleep(GCInterval + simtime.Second) })
	r.sim.MustRun()

	names := map[string]bool{}
	for id := range scrapeRig(t, r) {
		names[strings.SplitN(id, "{", 2)[0]] = true
	}
	var got []string
	for n := range names {
		got = append(got, n)
	}
	sort.Strings(got)
	want := []string{
		"sponge_buf_cached",
		"sponge_buf_outstanding",
		"sponge_candidates_blacklisted_total",
		"sponge_chunks_lost_total",
		"sponge_fault_blocked_total",
		"sponge_fault_drops_total",
		"sponge_fault_exchanges_total",
		"sponge_gc_freed_chunks_total",
		"sponge_membership_changes_total",
		"sponge_peer_revocations_total",
		"sponge_pool_free_chunks",
		"sponge_pool_high_water",
		"sponge_pool_owner_tasks",
		"sponge_pool_pinned_readers",
		"sponge_ra_inline_fetch_total",
		"sponge_ra_occupancy_bucket",
		"sponge_ra_occupancy_count",
		"sponge_ra_occupancy_sum",
		"sponge_ra_skips_total",
		"sponge_ra_window_hits_total",
		"sponge_remote_alloc_fails_total",
		"sponge_remote_allocs_total",
		"sponge_retries_total",
		"sponge_spill_chunks_total",
		"sponge_spill_fallback_total",
		"sponge_tracker_failovers_total",
		"sponge_tracker_last_poll_ns",
		"sponge_tracker_leader_epoch",
		"sponge_tracker_poll_drops_total",
		"sponge_tracker_polls_total",
		"sponge_tracker_queries_total",
		"sponge_tracker_updates_total",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("series catalog changed:\ngot  %q\nwant %q", got, want)
	}
}

// TestServiceMetricsRegistrySharing: a registry handed in through
// ServiceConfig.Metrics is the one the service exposes; omitting it
// gives a private, non-nil registry.
func TestServiceMetricsRegistrySharing(t *testing.T) {
	reg := obs.NewRegistry()
	r := newRig(t, 3, 8, func(c *ServiceConfig) { c.Metrics = reg })
	if r.svc.Metrics() != reg {
		t.Fatal("service ignored ServiceConfig.Metrics")
	}
	r2 := newRig(t, 3, 8, nil)
	if r2.svc.Metrics() == nil || r2.svc.Metrics() == reg {
		t.Fatal("service without config registry must create a private one")
	}
}

// TestPoolGaugesTrackLiveState: the per-node GaugeFuncs must reflect
// the pools' current occupancy at scrape time.
func TestPoolGaugesTrackLiveState(t *testing.T) {
	r := newRig(t, 3, 4, nil)
	var held []int
	r.sim.Spawn("task", func(p *simtime.Proc) {
		pool := r.svc.Servers[1].Pool()
		for i := 0; i < 3; i++ {
			h, err := pool.Alloc(TaskID{Node: 1, PID: 42})
			if err != nil {
				t.Errorf("alloc: %v", err)
				return
			}
			held = append(held, h)
		}
	})
	r.sim.MustRun()
	samples := scrapeRig(t, r)
	pool := r.svc.Servers[1].Pool()
	want := int64(pool.Free())
	if got := samples[`sponge_pool_free_chunks{node="1"}`]; got != want {
		t.Errorf("free gauge = %d, want %d", got, want)
	}
	if got := samples[`sponge_pool_high_water{node="1"}`]; got != 3 {
		t.Errorf("high-water gauge = %d, want 3", got)
	}
	if got := samples[`sponge_pool_owner_tasks{node="1"}`]; got != 1 {
		t.Errorf("owner gauge = %d, want 1", got)
	}
	if got := samples[`sponge_pool_pinned_readers{node="1"}`]; got != 0 {
		t.Errorf("pinned-readers gauge = %d, want 0 at rest", got)
	}
	// A held SegmentFiles hold is an outstanding reader: the gauge must
	// see it live and drop back after release.
	if _, _, err := pool.SegmentFiles(); err == nil {
		if got := scrapeRig(t, r)[`sponge_pool_pinned_readers{node="1"}`]; got != 1 {
			t.Errorf("pinned-readers gauge under hold = %d, want 1", got)
		}
		pool.ReleaseSegmentFiles()
		if got := scrapeRig(t, r)[`sponge_pool_pinned_readers{node="1"}`]; got != 0 {
			t.Errorf("pinned-readers gauge after release = %d, want 0", got)
		}
	}
}

// faultCounterRun drives one fixed-seed faulty round trip and returns
// the fault/retry/blacklist counters a scrape would show. Satellite for
// the FaultTransport↔metrics interplay: the same seed must produce the
// same injected drops and therefore bit-identical counters.
func faultCounterRun(t *testing.T) map[string]int64 {
	t.Helper()
	r := newRig(t, 4, 2, nil)
	faults := NewFaultTransport(r.svc.Transport(), FaultConfig{Seed: 7, DropRate: 0.25})
	r.svc.SetTransport(faults)
	data := pattern(8*r.svc.ChunkReal(), 11)
	r.sim.Spawn("task", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "faulty")
		if err := f.Write(p, data); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
			return
		}
		buf := make([]byte, r.svc.ChunkReal())
		for {
			n, err := f.Read(p, buf)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if n == 0 {
				break
			}
		}
		f.Delete(p)
	})
	r.sim.MustRun()
	samples := scrapeRig(t, r)
	keys := []string{
		"sponge_fault_exchanges_total",
		"sponge_fault_drops_total",
		`sponge_retries_total{op="alloc"}`,
		`sponge_retries_total{op="read"}`,
		`sponge_retries_total{op="poll"}`,
		"sponge_candidates_blacklisted_total",
	}
	out := make(map[string]int64, len(keys))
	for _, k := range keys {
		out[k] = samples[k]
	}
	return out
}

// TestFaultMetricsDeterministicUnderSeed: two runs with the same seed,
// rates, and workload must inject the same faults and land on exactly
// the same retry, drop, and blacklist counters — attaching metrics
// consumes no randomness.
func TestFaultMetricsDeterministicUnderSeed(t *testing.T) {
	a := faultCounterRun(t)
	b := faultCounterRun(t)
	for k, av := range a {
		if bv := b[k]; av != bv {
			t.Errorf("%s diverged across same-seed runs: %d vs %d", k, av, bv)
		}
	}
	if a["sponge_fault_drops_total"] == 0 {
		t.Fatal("25%% drop rate injected nothing; the determinism check is vacuous")
	}
	if a[`sponge_retries_total{op="alloc"}`]+a[`sponge_retries_total{op="read"}`]+
		a[`sponge_retries_total{op="poll"}`] == 0 {
		t.Fatal("injected drops caused no observed retries")
	}
}

// TestTrackerPollDropCountersPerNode: polls lost on the one cut link are
// attributed to the node behind it, and to no other.
func TestTrackerPollDropCountersPerNode(t *testing.T) {
	r := newRig(t, 3, 8, nil)
	faults := NewFaultTransport(r.svc.Transport(), FaultConfig{Seed: 5})
	r.svc.SetTransport(faults)
	r.sim.Spawn("chaos", func(p *simtime.Proc) {
		faults.Cut(0, 2)
		p.Sleep(4 * r.svc.Config.PollInterval)
	})
	r.sim.MustRun()
	drops := perNode(t, r.svc, "sponge_tracker_poll_drops_total")
	if drops[0] != 0 || drops[1] != 0 {
		t.Errorf("poll drops per node = %v; only the link to node 2 was cut", drops)
	}
	if drops[2] == 0 {
		t.Fatal("cut link to node 2 dropped no polls; the attribution check is vacuous")
	}
	if metricOf(t, r.svc, "sponge_tracker_polls_total") == 0 {
		t.Error("tracker poll counter never moved")
	}
}
