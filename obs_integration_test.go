package spongefiles_test

// End-to-end observability: a 3-node TCP sponge cluster shares one obs
// registry between the simulated service and its wire daemons, a faulty
// spill/read round trip moves the allocator, retry, and readahead
// counters, and a live scrape over the wire's OpMetrics — the same path
// `spongectl stats -addrs` uses — renders them in the per-node table.

import (
	"bytes"
	"strings"
	"testing"

	"spongefiles/internal/cluster"
	"spongefiles/internal/media"
	"spongefiles/internal/obs"
	"spongefiles/internal/simtime"
	"spongefiles/internal/sponge"
	"spongefiles/internal/sponge/wire"
)

func TestStatsScrapeFromLiveCluster(t *testing.T) {
	cfg := cluster.PaperConfig()
	cfg.Workers = 4
	cfg.SpongeMemory = 2 * media.MB // two local chunks, the rest spills
	sim := simtime.New()
	c := cluster.New(sim, cfg)
	scfg := sponge.DefaultConfig()
	scfg.LocalDiskEnabled = false // keep the load on the remote-memory path
	svc := sponge.Start(c, scfg)

	// Nodes 1..3 run real TCP daemons instrumented into the service's
	// registry, so one scrape shows the whole cluster's story.
	addrs := make(map[int]string)
	for n := 1; n <= 3; n++ {
		pool := sponge.NewPool(svc.ChunkReal(), 8)
		srv, err := wire.Serve(pool, "127.0.0.1:0", wire.Options{Metrics: svc.Metrics()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[n] = srv.Addr()
	}
	wt := wire.NewTransportOptions(addrs, svc.Transport(), wire.TransportOptions{})
	t.Cleanup(func() { wt.Close() })
	// A fixed-seed fault layer on top of the wire forces retries, so the
	// retry counters have something real to count.
	faults := sponge.NewFaultTransport(wt, sponge.FaultConfig{Seed: 7, DropRate: 0.2})
	svc.SetTransport(faults)

	chunk := svc.ChunkReal()
	data := make([]byte, 20*chunk) // 18 remote chunks: more than two peers hold, so all three serve
	for i := range data {
		data[i] = byte(i*17 + 3)
	}
	var stats sponge.FileStats
	sim.Spawn("task", func(p *simtime.Proc) {
		agent := svc.NewAgent(c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "observed")
		if err := f.Write(p, data); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
			return
		}
		got := make([]byte, 0, len(data))
		buf := make([]byte, chunk)
		for {
			n, err := f.Read(p, buf)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("round trip corrupt: %d bytes back, want %d", len(got), len(data))
		}
		stats = f.Stats()
		f.Delete(p)
	})
	sim.MustRun()

	// Scrape every node over TCP, exactly as `spongectl stats -addrs`
	// does: Dial, OpMetrics, ParseText.
	var nodes []obs.NodeSamples
	for n := 1; n <= 3; n++ {
		cl, err := wire.Dial(addrs[n])
		if err != nil {
			t.Fatalf("dial node %d: %v", n, err)
		}
		text, err := cl.Metrics()
		cl.Close()
		if err != nil {
			t.Fatalf("scrape node %d: %v", n, err)
		}
		samples, err := obs.ParseText(text)
		if err != nil {
			t.Fatalf("parse node %d scrape: %v", n, err)
		}
		nodes = append(nodes, obs.NodeSamples{Name: addrs[n], Samples: samples})
	}

	// The registry is shared, so any node's scrape carries the full
	// cluster view; assert against the first.
	s := nodes[0].Samples

	// Allocator outcomes: the spill counters must agree with the file's
	// own placement accounting, and the workload must have gone remote.
	if stats.ByKind[sponge.RemoteMem] == 0 {
		t.Fatal("workload never spilled remotely; the scrape exercises nothing")
	}
	if got := s[`sponge_spill_chunks_total{kind="remote_mem"}`]; got != int64(stats.ByKind[sponge.RemoteMem]) {
		t.Errorf("remote_mem spill counter = %d, want %d", got, stats.ByKind[sponge.RemoteMem])
	}
	if s[`sponge_spill_fallback_total{reason="local_full"}`] == 0 {
		t.Error("local pool exhaustion left no fallback marks")
	}

	// Retries: the 20% drop rate must have injected faults and the
	// service must have retried through them.
	if s["sponge_fault_drops_total"] == 0 {
		t.Error("fault layer dropped nothing; retry assertion is vacuous")
	}
	retries := s[`sponge_retries_total{op="alloc"}`] +
		s[`sponge_retries_total{op="read"}`] +
		s[`sponge_retries_total{op="poll"}`]
	if retries == 0 {
		t.Error("injected drops caused no observed retries")
	}

	// Readahead: every chunk of the sequential read-back is either a
	// window hit or an inline fetch.
	hits := s["sponge_ra_window_hits_total"]
	inline := s["sponge_ra_inline_fetch_total"]
	if hits+inline != int64(stats.Chunks) {
		t.Errorf("window hits %d + inline %d != %d chunks", hits, inline, stats.Chunks)
	}
	if hits == 0 {
		t.Error("depth-4 window produced no hits on a remote-heavy file")
	}

	// The wire daemons counted their own traffic into the same registry,
	// labeled by listen address.
	for n := 1; n <= 3; n++ {
		id := `spongewire_requests_total{listen="` + addrs[n] + `",op="alloc_write"}`
		if s[id] == 0 {
			t.Errorf("node %d served no alloc_write requests (%s)", n, id)
		}
	}

	// Render the same table `spongectl stats` prints and spot-check it.
	var table strings.Builder
	if err := obs.RenderNodeTable(&table, nodes,
		"sponge_spill", "sponge_retries", "sponge_ra_", "spongewire_requests_total"); err != nil {
		t.Fatalf("render: %v", err)
	}
	out := table.String()
	for _, want := range []string{
		"METRIC", "TOTAL", addrs[1],
		`sponge_spill_chunks_total{kind="remote_mem"}`,
		"sponge_ra_window_hits_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}
