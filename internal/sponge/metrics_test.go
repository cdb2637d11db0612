package sponge

import (
	"strconv"
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

// TestTraceRecordsChunkLifecycle: the trace ring must carry the full
// alloc→write→(read)→free story of a round-tripped file, stamped with
// virtual time.
func TestTraceRecordsChunkLifecycle(t *testing.T) {
	r := newRig(t, 4, 2, nil)
	data := pattern(6*r.svc.ChunkReal(), 7)
	f := writeReadDelete(t, r, 0, data)
	st := f.Stats()
	events := r.svc.Trace().Snapshot()
	if len(events) == 0 {
		t.Fatal("trace ring is empty after a full round trip")
	}
	counts := map[obs.EventKind]int64{}
	var lastSeq uint64
	for i, ev := range events {
		counts[ev.Kind]++
		if i > 0 && ev.Seq != lastSeq+1 {
			t.Fatalf("trace seq jumped %d -> %d", lastSeq, ev.Seq)
		}
		lastSeq = ev.Seq
	}
	if counts[obs.EvAlloc] != int64(st.Chunks) {
		t.Errorf("alloc events = %d, want %d", counts[obs.EvAlloc], st.Chunks)
	}
	if counts[obs.EvWrite] != int64(st.Chunks) {
		t.Errorf("write events = %d, want %d", counts[obs.EvWrite], st.Chunks)
	}
	if counts[obs.EvRead] != int64(st.Chunks) {
		t.Errorf("read events = %d, want %d", counts[obs.EvRead], st.Chunks)
	}
	if counts[obs.EvFree] != int64(st.Chunks) {
		t.Errorf("free events = %d, want %d", counts[obs.EvFree], st.Chunks)
	}
	// Virtual timestamps: the simulation advances during the round
	// trip, so the last event must be stamped later than the first.
	if events[len(events)-1].Sim <= events[0].Sim {
		t.Errorf("trace sim timestamps did not advance: %d .. %d",
			events[0].Sim, events[len(events)-1].Sim)
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
	if r2.svc.Trace() == nil {
		t.Fatal("trace ring missing")
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
	// The wrapper's own stats and the mirrored counters must agree.
	fs := faults.Stats()
	if out["sponge_fault_drops_total"] != fs.Drops {
		t.Errorf("drop counter %d != FaultStats.Drops %d", out["sponge_fault_drops_total"], fs.Drops)
	}
	if out["sponge_fault_exchanges_total"] != fs.Exchanges {
		t.Errorf("exchange counter %d != FaultStats.Exchanges %d",
			out["sponge_fault_exchanges_total"], fs.Exchanges)
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

// TestTrackerPollDropCountersPerNode: the registry's per-node poll-drop
// counters must match the tracker's own attribution.
func TestTrackerPollDropCountersPerNode(t *testing.T) {
	r := newRig(t, 3, 8, nil)
	faults := NewFaultTransport(r.svc.Transport(), FaultConfig{Seed: 5})
	r.svc.SetTransport(faults)
	r.sim.Spawn("chaos", func(p *simtime.Proc) {
		faults.SetLinkDrop(0, 2, 1.0)
		p.Sleep(4 * r.svc.Config.PollInterval)
	})
	r.sim.MustRun()
	samples := scrapeRig(t, r)
	tr := r.svc.Tracker
	for i := 0; i < 3; i++ {
		id := `sponge_tracker_poll_drops_total{node="` + strconv.Itoa(i) + `"}`
		if got := samples[id]; got != tr.PollDropsFor(i) {
			t.Errorf("%s = %d, want %d", id, got, tr.PollDropsFor(i))
		}
	}
	if tr.PollDropsFor(2) == 0 {
		t.Fatal("cut link to node 2 dropped no polls; the attribution check is vacuous")
	}
	if samples["sponge_tracker_polls_total"] == 0 {
		t.Error("tracker poll counter never moved")
	}
}
