package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"time"

	"spongefiles/internal/cluster"
	"spongefiles/internal/dfs"
	"spongefiles/internal/mapreduce"
	"spongefiles/internal/pig"
	"spongefiles/internal/scenario"
	"spongefiles/internal/simtime"
	"spongefiles/internal/sponge"
	"spongefiles/internal/sponge/wire"
)

// The probes time single layers directly, once per traced run, one
// goroutine, never gated. They carry on the per-chunk figures of the
// serial small-chunk exchange that is deliberately not a gated workload
// (README.md, "Why not spill-tcp-16k"), and give the 16 KiB and 1 MiB
// wire costs the job and spill workloads are made of.

// probeChunks is how many chunks each wire probe moves; a 1 MiB probe
// moves a quarter as many, which keeps the six probes near three
// seconds.
const probeChunks = 2000

func runProbes(e *env, m map[string]float64) error {
	for _, sz := range []struct {
		label  string
		chunk  int
		chunks int
	}{{"16k", 16 << 10, probeChunks}, {"1m", 1 << 20, probeChunks / 4}} {
		if e.size == tiny {
			sz.chunks = 20
		}
		if err := wireProbes(e, m, sz.label, sz.chunk, sz.chunks); err != nil {
			return fmt.Errorf("wire probe %s: %w", sz.label, err)
		}
		m["pool.rt"+sz.label+"_ns"] = poolProbe(sz.chunk, sz.chunks*4)
	}
	scale := 1
	if e.size == tiny {
		scale = 20
	}
	m["simtime.ns_per_event"] = simtimeProbe(400_000 / scale)
	m["pig.tuple_codec_ns"] = pigProbe(400_000 / scale)
	m["mr.sortbuf_ns_per_rec"] = sortBufferProbe(400_000 / scale)
	return nil
}

// wireProbes spawns one daemon and times AllocWrite+ReadInto+Free of
// one chunk over each tier: loopback TCP, the unix socket, and the unix
// socket with the pool descriptors passed (reads are a loc exchange and
// a pread).
func wireProbes(e *env, m map[string]float64, label string, chunk, chunks int) error {
	sockDir, err := e.dir("probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(sockDir)
	h, err := scenario.Spawn(scenario.HarnessOptions{
		Exe:        e.exe,
		Nodes:      1,
		ChunkBytes: chunk,
		Chunks:     4,
		Wire:       wire.Options{LocalSocketDir: sockDir},
		Stderr:     os.Stderr,
	})
	if err != nil {
		return err
	}
	e.onCleanup(h.Stop)
	defer h.Stop()
	sock, err := wire.SocketPath(sockDir, h.Addr(1))
	if err != nil {
		return err
	}
	dials := []struct {
		tier string
		dial func() (*wire.Client, error)
	}{
		{"tcp", func() (*wire.Client, error) { return wire.Dial(h.Addr(1)) }},
		{"unix", func() (*wire.Client, error) { return wire.DialLocal(sock) }},
		{"poolfd", func() (*wire.Client, error) {
			c, err := wire.DialLocal(sock)
			if err == nil {
				if err = c.FetchPoolFDs(); err != nil {
					c.Close()
				}
			}
			return c, err
		}},
	}
	data := make([]byte, chunk)
	fillPayload(data, e.seed)
	buf := make([]byte, chunk)
	owner := sponge.TaskID{Node: 1, PID: 1}
	for _, d := range dials {
		c, err := d.dial()
		if err != nil {
			return fmt.Errorf("%s: %w", d.tier, err)
		}
		times := make([]float64, 0, chunks)
		for i := 0; i < chunks+chunks/10; i++ { // the first tenth warms buffers and caches
			t0 := time.Now()
			hd, err := c.AllocWrite(owner, data)
			if err == nil {
				var n int
				if n, err = c.ReadInto(hd, buf); err == nil && n != chunk {
					err = fmt.Errorf("short read: %d bytes", n)
				}
				if ferr := c.Free(hd); err == nil {
					err = ferr
				}
			}
			if err != nil {
				c.Close()
				return fmt.Errorf("%s: %w", d.tier, err)
			}
			if i >= chunks/10 {
				times = append(times, float64(time.Since(t0)))
			}
		}
		c.Close()
		if !bytes.Equal(buf, data) {
			return fmt.Errorf("%s: read-back differs", d.tier)
		}
		sort.Float64s(times)
		m["wire.rt"+label+"_"+d.tier+"_p50_us"] = quantile(times, 0.5) / 1e3
	}
	return nil
}

// poolProbe times Alloc+Write+Read+FreeChunk on an in-process pool and
// returns nanoseconds per round.
func poolProbe(chunk, rounds int) float64 {
	pool := sponge.NewPool(chunk, 4)
	defer pool.Close()
	data := make([]byte, chunk)
	buf := make([]byte, chunk)
	owner := sponge.TaskID{Node: 1, PID: 1}
	start := time.Now()
	for i := 0; i < rounds; i++ {
		h, err := pool.Alloc(owner)
		if err != nil {
			return 0
		}
		pool.Write(h, data)
		pool.Read(h, buf)
		pool.FreeChunk(h)
	}
	return float64(time.Since(start)) / float64(rounds)
}

// simtimeProbe returns the host nanoseconds one simulator event costs:
// a process sleeping n times.
func simtimeProbe(n int) float64 {
	sim := simtime.New()
	sim.Spawn("probe", func(p *simtime.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(simtime.Microsecond)
		}
	})
	start := time.Now()
	sim.MustRun()
	return float64(time.Since(start)) / float64(n)
}

// pigProbe returns the nanoseconds of one tuple encode + decode, on the
// tuple internal/pig's own benchmark uses.
func pigProbe(n int) float64 {
	t := pig.Tuple{
		"http://www.domain042.com/page/123456", "domain042.com", "en", 0.375,
		pig.Tuple{"term0001", "term0042", "term0007", "term0100"},
		"padding-padding-padding-padding",
	}
	enc := pig.AppendTuple(nil, t)
	start := time.Now()
	for i := 0; i < n; i++ {
		enc = pig.AppendTuple(enc[:0], t)
		if len(pig.DecodeTuple(enc)) != len(t) {
			return 0
		}
	}
	return float64(time.Since(start)) / float64(n)
}

// sortBufferProbe returns the host nanoseconds per record of a map-only
// job on one simulated node: record generation is trivial, so the
// engine's emit path and sort buffer are what is timed.
func sortBufferProbe(records int) float64 {
	cfg := cluster.PaperConfig()
	cfg.Workers = 1
	sim := simtime.New()
	c := cluster.New(sim, cfg)
	fs := dfs.New(c)
	eng := mapreduce.NewEngine(c, fs)
	const recReal = 12 + 8 + 8
	fs.AddExisting("/in/probe", c.Cfg.V(records*recReal))
	blocks := len(fs.Lookup("/in/probe").Blocks)
	key := []byte("key-00000000")
	val := make([]byte, 8)
	conf := mapreduce.JobConf{
		Name: "probe",
		Input: mapreduce.Input{File: "/in/probe", MakeRecords: func(split int) mapreduce.RecordGen {
			return func(emit mapreduce.Emit) {
				for i := 0; i < records/blocks; i++ {
					x := uint32(i) * 2654435761 // scatter the keys
					for d := 0; d < 8; d++ {
						key[4+d] = '0' + byte(x>>(4*uint(d))&7)
					}
					emit(key, val)
				}
			}
		}},
		Map: func(ctx *mapreduce.TaskContext, k, v []byte, emit mapreduce.Emit) { emit(k, v) },
	}
	sim.Spawn("driver", func(p *simtime.Proc) { eng.Submit(conf).Wait(p) })
	start := time.Now()
	sim.MustRun()
	return float64(time.Since(start)) / float64(records/blocks*blocks)
}
