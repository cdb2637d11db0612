package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strings"

	"spongefiles/internal/cluster"
	"spongefiles/internal/media"
	"spongefiles/internal/obs"
	"spongefiles/internal/scenario"
	"spongefiles/internal/simtime"
	"spongefiles/internal/sponge"
	"spongefiles/internal/sponge/wire"
)

// The spill workloads: one client writes a payload through a
// sponge.File whose local pool holds two chunks, so every other chunk
// goes to two child daemons, then closes, reads back, verifies and
// deletes it. spill-tcp-1m reaches the daemons over loopback TCP;
// spill-samehost-1m over their unix sockets with fd passing armed and
// pools small enough that part of the payload overflows into the
// daemons' spill files.
const (
	spillChunks   = 64 // payload size in chunks
	spillLocal    = 2  // chunks of local sponge memory on the client
	spillChildren = 2

	// Pool sizes, in chunks. Affinity fills one daemon before the other,
	// so over TCP the pools hold 40 + 22 chunks. On the same-host tier
	// each daemon takes its pool plus samehostSpillCap spilled chunks:
	// 24+8 on the first, 24+6 on the second — 14 of the 62 remote chunks
	// (23 %) live in the spill files.
	tcpPoolChunks      = 40
	samehostPoolChunks = 24
	samehostSpillCap   = 8
)

type spillInstance struct {
	e        *env
	samehost bool
	sim      *simtime.Sim
	c        *cluster.Cluster
	svc      *sponge.Service
	reg      *obs.Registry
	h        *scenario.Harness
	wt       *wire.Transport
	tt       *tracedTransport
	dirs     []string
	data     []byte
	digest   [sha256.Size]byte
	buf      []byte
	// base holds the registry and child scrape, and the transport
	// decorator's counts, at the start of the traced section, so finish
	// reports deltas.
	base                     map[string]int64
	basePayload, baseUnreach int64
	iters                    int // iterations since markBase
}

// fillPayload writes a seed-driven pattern: a splitmix64 stream, so the
// same seed gives the same bytes and no chunk repeats another.
func fillPayload(data []byte, seed int64) {
	x := uint64(seed)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	i := 0
	for ; i+8 <= len(data); i += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		binary.LittleEndian.PutUint64(data[i:], z^(z>>31))
	}
	for ; i < len(data); i++ {
		data[i] = byte(x >> uint(8*(i%8)))
	}
}

func setupSpill(e *env, samehost bool) (instance, error) {
	tr := e.tr
	s := &spillInstance{e: e, samehost: samehost}

	cfg := cluster.PaperConfig()
	cfg.Workers = spillChildren + 1 // node 0 is the client; 1..2 are the daemons
	cfg.Scale = 1                   // 1 MiB real chunks, the paper's size (§3.2)
	if e.size == tiny {
		cfg.Scale = 64 // 16 KiB real chunks
	}
	cfg.SpongeMemory = spillLocal * media.MB
	s.sim = simtime.New()
	s.c = cluster.New(s.sim, cfg)
	s.reg = obs.NewRegistry()
	scfg := sponge.DefaultConfig()
	scfg.Metrics = s.reg
	s.svc = sponge.Start(s.c, scfg)

	hopts := scenario.HarnessOptions{
		Exe:        e.exe,
		Nodes:      spillChildren,
		ChunkBytes: s.svc.ChunkReal(),
		Chunks:     tcpPoolChunks,
		Stderr:     os.Stderr,
	}
	var sockDir string
	if samehost {
		var err error
		if sockDir, err = e.dir("sock"); err != nil {
			return nil, err
		}
		spillDir, err := e.dir("spill")
		if err != nil {
			return nil, err
		}
		s.dirs = []string{sockDir, spillDir}
		hopts.Chunks = samehostPoolChunks
		hopts.Wire = wire.Options{LocalSocketDir: sockDir, SpillDir: spillDir, SpillChunks: samehostSpillCap}
	}
	start := tr.now()
	h, err := scenario.Spawn(hopts)
	if err != nil {
		s.removeDirs()
		return nil, err
	}
	s.h = h
	e.onCleanup(h.Stop) // idempotent: covers error paths and SIGINT
	tr.leaf("harness.spawn", start, tr.now())

	s.wt = wire.NewTransportOptions(h.Addrs(), s.svc.Transport(), wire.TransportOptions{
		SocketDir: sockDir,
		Metrics:   s.reg,
	})
	s.tt = newTracedTransport(s.wt, tr)
	s.svc.SetTransport(s.tt)

	start = tr.now()
	s.data = make([]byte, spillChunks*s.svc.ChunkReal())
	fillPayload(s.data, e.seed)
	s.digest = sha256.Sum256(s.data)
	s.buf = make([]byte, s.svc.ChunkReal())
	tr.leaf("workload.gen", start, tr.now())

	// The first iteration dials both daemons, arms fd passing on the
	// unix tier, and is checked by digest as well as byte for byte.
	start = tr.now()
	if _, err := s.roundTrip(true); err != nil {
		s.close()
		return nil, fmt.Errorf("first iteration: %w", err)
	}
	tr.leaf("setup.first_iter", start, tr.now())
	return s, nil
}

func (s *spillInstance) iterate() (iterStats, error) {
	s.iters++
	v, err := s.roundTrip(false)
	return iterStats{virtual: v}, err
}

func (s *spillInstance) workerRSSMiB() float64 { return 0 }

// roundTrip is one iteration: write → close → read → verify → delete.
func (s *spillInstance) roundTrip(withDigest bool) (virtual float64, err error) {
	tr := s.e.tr
	s.sim.Spawn("iter", func(p *simtime.Proc) {
		// One poll interval of think time: the tracker's next poll lands
		// while every pool is empty, so each iteration starts from the
		// same free list and places its chunks the same way.
		p.Sleep(s.svc.Config.PollInterval)
		v0 := p.Now()
		agent := s.svc.NewAgent(s.c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "bench-spill")

		id := tr.begin("file.write")
		err = f.Write(p, s.data)
		tr.end(id)
		if err != nil {
			err = fmt.Errorf("write: %w", err)
			return
		}
		id = tr.begin("file.close")
		err = f.Close(p)
		tr.end(id)
		if err != nil {
			err = fmt.Errorf("close: %w", err)
			return
		}
		hash := sha256.New()
		got := 0
		for {
			id = tr.begin("file.read")
			n, rerr := f.Read(p, s.buf)
			tr.end(id)
			if rerr != nil {
				err = fmt.Errorf("read at offset %d: %w", got, rerr)
				break
			}
			if n == 0 {
				break
			}
			if got+n > len(s.data) || !bytes.Equal(s.buf[:n], s.data[got:got+n]) {
				err = fmt.Errorf("read-back differs from the payload in [%d,%d)", got, got+n)
				break
			}
			if withDigest {
				hash.Write(s.buf[:n])
			}
			got += n
		}
		stats := f.Stats()
		id = tr.begin("file.delete")
		f.Delete(p)
		tr.end(id)
		virtual = p.Now().Sub(v0).Seconds()
		if err != nil {
			return
		}
		if got != len(s.data) {
			err = fmt.Errorf("short read: %d of %d bytes", got, len(s.data))
			return
		}
		if withDigest {
			var sum [sha256.Size]byte
			hash.Sum(sum[:0])
			if sum != s.digest {
				err = errors.New("SHA-256 of the read-back differs from the payload's")
				return
			}
		}
		if stats.ByKind[sponge.LocalMem] != spillLocal || stats.ByKind[sponge.RemoteMem] != spillChunks-spillLocal {
			err = fmt.Errorf("placement drifted: chunks by kind %v, want %d local and %d remote",
				stats.ByKind, spillLocal, spillChunks-spillLocal)
		}
	})
	if _, rerr := s.sim.Run(); rerr != nil && err == nil {
		err = rerr
	}
	return virtual, err
}

func (s *spillInstance) pids() []int { return harnessPids(s.h, spillChildren) }

// harnessPids lists the process IDs of a harness's n children.
func harnessPids(h *scenario.Harness, n int) []int {
	var out []int
	for node := 1; node <= n; node++ {
		out = append(out, h.Pid(node))
	}
	return out
}

// stopHarness stops the children, records how long that took, and
// checks that none survived.
func stopHarness(tr *tracer, h *scenario.Harness, n int) error {
	pids := harnessPids(h, n)
	start := tr.now()
	h.Stop()
	tr.leaf("harness.stop", start, tr.now())
	for _, pid := range pids {
		if processAlive(pid) {
			return fmt.Errorf("child %d survived teardown", pid)
		}
	}
	return nil
}

// scrapeAll merges the parent registry with every child's exposition.
func scrapeAll(reg *obs.Registry, h *scenario.Harness) map[string]int64 {
	parent, _ := obs.ParseText(reg.Text())
	maps := []map[string]int64{parent}
	for _, ns := range h.Scrape() {
		// Child series carry a listen label; fold them by bare name.
		folded := map[string]int64{}
		for id, v := range ns.Samples {
			folded[stripLabel(id, "listen")] += v
		}
		maps = append(maps, folded)
	}
	return obs.MergeSamples(maps...)
}

// markBase snapshots the counters at the start of the traced section.
func (s *spillInstance) markBase() {
	s.base = scrapeAll(s.reg, s.h)
	s.basePayload, s.baseUnreach = s.tt.payload, s.tt.unreachable
	s.iters = 0
}

func (s *spillInstance) finish(m map[string]float64) error {
	now := scrapeAll(s.reg, s.h)
	wireCounts(m, now, s.base, s.iters)
	m["transport.unreachable_n"] = float64(s.tt.unreachable - s.baseUnreach)
	m["_payload_bytes"] = float64(s.tt.payload - s.basePayload)

	// Correctness over the whole run, not just the traced section.
	if lost := now["sponge_chunks_lost_total"]; lost != 0 {
		return fmt.Errorf("%d chunks lost", lost)
	}
	if free, total := now["spongewire_pool_free_chunks"], now["spongewire_pool_chunks"]; free != total {
		return fmt.Errorf("daemon pools hold %d chunks after the last delete", total-free)
	}
	if live := now["spongewire_spill_chunks"]; live != 0 {
		return fmt.Errorf("%d chunks left in the daemons' spill files", live)
	}
	tier := func(name string) int64 { return now[`sponge_transport_tier_total{tier="`+name+`"}`] }
	if s.samehost {
		// Every tier the workload exists to cover must have carried
		// traffic: writes over the socket, pool reads by fd + pread,
		// spill-file reads by fd + pread.
		switch {
		case tier("unix") == 0:
			return errors.New("no exchange took the unix socket")
		case tier("tcp") != 0:
			return fmt.Errorf("%d exchanges leaked onto TCP", tier("tcp"))
		case tier("pool_fd") == 0:
			return errors.New("no read took the pool-fd path")
		case now["spongewire_spill_allocs_total"] == 0:
			return errors.New("no chunk overflowed into a spill file")
		case now[`spongewire_requests_total{op="spill_loc"}`] == 0:
			return errors.New("no read took the spill-fd path")
		}
	} else if tier("tcp") == 0 || tier("unix") != 0 {
		return fmt.Errorf("tcp workload used tiers tcp=%d unix=%d", tier("tcp"), tier("unix"))
	}
	return nil
}

func (s *spillInstance) removeDirs() {
	for _, d := range s.dirs {
		os.RemoveAll(d)
	}
}

func (s *spillInstance) close() error {
	s.wt.Close()
	err := stopHarness(s.e.tr, s.h, spillChildren)
	for _, d := range s.dirs {
		if left, _ := os.ReadDir(d); len(left) > 0 {
			err = fmt.Errorf("%d files left in %s after teardown (%s …)", len(left), d, left[0].Name())
		}
	}
	s.removeDirs()
	return err
}

// wireCounts fills the wire-tier and allocator-chain counts every
// workload with children reports: deltas of the merged scrape since
// base, per iteration.
func wireCounts(m map[string]float64, now, base map[string]int64, iters int) {
	if iters == 0 {
		iters = 1
	}
	for metric, id := range map[string]string{
		"wire.tier_tcp_n":           `sponge_transport_tier_total{tier="tcp"}`,
		"wire.tier_unix_n":          `sponge_transport_tier_total{tier="unix"}`,
		"wire.tier_pool_fd_n":       `sponge_transport_tier_total{tier="pool_fd"}`,
		"wire.spill_allocs_n":       "spongewire_spill_allocs_total",
		"wire.zero_copy_bytes":      "spongewire_serve_zero_copy_bytes_total",
		"wire.zero_copy_fallback_n": "spongewire_serve_zero_copy_fallback_total",
		"wire.fdpass_fail_n":        "spongewire_fdpass_fail_total",
		"wire.gen_miss_n":           "sponge_poolfd_gen_miss_total",
		"wire.unix_fallback_n":      "sponge_transport_unix_fallback_total",
		"file.chunks_local_n":       `sponge_spill_chunks_total{kind="local_mem"}`,
		"file.chunks_remote_n":      `sponge_spill_chunks_total{kind="remote_mem"}`,
		"sponge.chunks_lost_n":      "sponge_chunks_lost_total",
	} {
		m[metric] = float64(now[id]-base[id]) / float64(iters)
	}
	retries := func(s map[string]int64) int64 {
		return s[`sponge_retries_total{op="alloc"}`] + s[`sponge_retries_total{op="read"}`]
	}
	m["file.retries_n"] = float64(retries(now)-retries(base)) / float64(iters)
}

// stripLabel removes one label from a series id, so per-daemon series
// fold together by what they count.
func stripLabel(id, key string) string {
	open := strings.IndexByte(id, '{')
	if open < 0 {
		return id
	}
	var kept []string
	for _, l := range strings.Split(id[open+1:len(id)-1], ",") {
		if !strings.HasPrefix(l, key+`="`) {
			kept = append(kept, l)
		}
	}
	if len(kept) == 0 {
		return id[:open]
	}
	return id[:open] + "{" + strings.Join(kept, ",") + "}"
}
