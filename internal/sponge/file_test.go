package sponge

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"spongefiles/internal/cluster"
	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
)

// testRig bundles a small simulated cluster with a running sponge service.
type testRig struct {
	sim *simtime.Sim
	c   *cluster.Cluster
	svc *Service
}

func newRig(t *testing.T, workers int, spongeMB int64, mutate func(*ServiceConfig)) *testRig {
	t.Helper()
	cfg := cluster.PaperConfig()
	cfg.Workers = workers
	cfg.SpongeMemory = spongeMB * media.MB
	sim := simtime.New()
	c := cluster.New(sim, cfg)
	scfg := DefaultConfig()
	if mutate != nil {
		mutate(&scfg)
	}
	svc := Start(c, scfg)
	return &testRig{sim: sim, c: c, svc: svc}
}

// pattern fills a deterministic, position-dependent byte pattern.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*31 + seed
	}
	return b
}

func writeReadDelete(t *testing.T, r *testRig, node int, data []byte) *File {
	t.Helper()
	var file *File
	r.sim.Spawn("task", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[node])
		defer agent.Close()
		f := agent.Create(p, "spill")
		if err := f.Write(p, data); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
			return
		}
		got := make([]byte, 0, len(data))
		buf := make([]byte, 1000)
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
			t.Errorf("round trip corrupt: got %d bytes want %d", len(got), len(data))
		}
		f.Delete(p)
		file = f
	})
	r.sim.MustRun()
	return file
}

func TestFileRoundTripLocalOnly(t *testing.T) {
	r := newRig(t, 1, 64, nil) // plenty of local sponge
	data := pattern(5*r.svc.ChunkReal()+123, 1)
	f := writeReadDelete(t, r, 0, data)
	st := f.Stats()
	if st.ByKind[LocalMem] != st.Chunks {
		t.Fatalf("expected all chunks local, stats %+v", st)
	}
	if st.Chunks != 6 {
		t.Fatalf("chunks = %d, want 6 (5 full + partial)", st.Chunks)
	}
	if got := r.svc.TotalFreeChunks(); got != 64 {
		t.Fatalf("chunks leaked: free = %d of 64", got)
	}
}

func TestFileSpillsRemoteWhenLocalFull(t *testing.T) {
	r := newRig(t, 3, 4, nil) // 4 chunks of sponge per node
	data := pattern(10*r.svc.ChunkReal(), 2)
	f := writeReadDelete(t, r, 1, data)
	st := f.Stats()
	if st.ByKind[LocalMem] != 4 {
		t.Fatalf("local chunks = %d, want 4", st.ByKind[LocalMem])
	}
	if st.ByKind[RemoteMem] != 6 {
		t.Fatalf("remote chunks = %d, want 6: %+v", st.ByKind, st)
	}
	if st.ByKind[LocalDisk] != 0 {
		t.Fatalf("unexpected disk spill: %+v", st)
	}
}

func TestFileFallsBackToDiskWhenMemoryFull(t *testing.T) {
	r := newRig(t, 2, 2, nil) // 2 chunks per node: 4 total
	data := pattern(9*r.svc.ChunkReal(), 3)
	f := writeReadDelete(t, r, 0, data)
	st := f.Stats()
	if st.ByKind[LocalMem] != 2 || st.ByKind[RemoteMem] != 2 {
		t.Fatalf("memory chunks = %+v", st.ByKind)
	}
	if st.ByKind[LocalDisk] != 5 {
		t.Fatalf("disk chunks = %d, want 5", st.ByKind[LocalDisk])
	}
}

func TestFileRackLocalOnly(t *testing.T) {
	r := newRigRacks(t)
	// Node 0 (rack 0) fills local sponge then must skip rack-1 nodes.
	data := pattern(6*r.svc.ChunkReal(), 4)
	f := writeReadDelete(t, r, 0, data)
	st := f.Stats()
	// Rack 0 holds nodes 0,1 with 2 chunks each: 2 local + 2 remote; the
	// rest must go to disk even though rack 1 has free sponge memory.
	if st.ByKind[RemoteMem] != 2 {
		t.Fatalf("remote chunks = %d, want 2 (rack-local only)", st.ByKind[RemoteMem])
	}
	if st.ByKind[LocalDisk] != 2 {
		t.Fatalf("disk chunks = %d, want 2", st.ByKind[LocalDisk])
	}
}

func newRigRacks(t *testing.T) *testRig {
	t.Helper()
	cfg := cluster.PaperConfig()
	cfg.Workers = 4
	cfg.NodesPerRack = 2
	cfg.SpongeMemory = 2 * media.MB
	sim := simtime.New()
	c := cluster.New(sim, cfg)
	svc := Start(c, DefaultConfig())
	return &testRig{sim: sim, c: c, svc: svc}
}

func TestAffinityPrefersUsedNodes(t *testing.T) {
	r := newRig(t, 5, 8, nil)
	r.sim.Spawn("task", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		// Spill enough for local (8) plus several remote chunks across
		// two files; affinity should reuse the first remote node instead
		// of spreading over all peers.
		for fi := 0; fi < 2; fi++ {
			f := agent.Create(p, fmt.Sprintf("f%d", fi))
			if err := f.Write(p, pattern(10*r.svc.ChunkReal(), byte(fi))); err != nil {
				t.Errorf("write: %v", err)
			}
			if err := f.Close(p); err != nil {
				t.Errorf("close: %v", err)
			}
			defer f.Delete(p)
		}
		// 20 chunks total, 8 local, 12 remote; each peer node has 8 free
		// chunks, so affinity packs them onto 2 machines.
		if got := agent.MachinesUsed(); got != 3 {
			t.Errorf("machines used = %d, want 3 (self + 2 remote)", got)
		}
	})
	r.sim.MustRun()
}

func TestFileRewindMultiPass(t *testing.T) {
	r := newRig(t, 2, 4, nil)
	data := pattern(5*r.svc.ChunkReal()+7, 5)
	r.sim.Spawn("task", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "multi")
		if err := f.Write(p, data); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		for pass := 0; pass < 3; pass++ {
			got := make([]byte, 0, len(data))
			buf := make([]byte, 777)
			for {
				n, err := f.Read(p, buf)
				if err != nil {
					t.Errorf("pass %d read: %v", pass, err)
					return
				}
				if n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
			if !bytes.Equal(got, data) {
				t.Errorf("pass %d corrupt", pass)
			}
			f.Rewind()
		}
		f.Delete(p)
	})
	r.sim.MustRun()
}

func TestChunkLostOnNodeFailure(t *testing.T) {
	r := newRig(t, 3, 2, nil)
	r.sim.Spawn("task", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "doomed")
		if err := f.Write(p, pattern(5*r.svc.ChunkReal(), 6)); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		// Kill every remote pool that holds our chunks.
		for i := 1; i < 3; i++ {
			r.svc.Servers[i].Pool().Fail()
		}
		buf := make([]byte, len(pattern(5*r.svc.ChunkReal(), 6)))
		var err error
		for {
			var n int
			n, err = f.Read(p, buf)
			if err != nil || n == 0 {
				break
			}
		}
		if err != ErrChunkLost {
			t.Errorf("read err = %v, want ErrChunkLost", err)
		}
	})
	r.sim.MustRun()
}

func TestGarbageCollectionFreesOrphans(t *testing.T) {
	r := newRig(t, 2, 4, nil)
	r.sim.Spawn("leaky", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		f := agent.Create(p, "leak")
		if err := f.Write(p, pattern(6*r.svc.ChunkReal(), 7)); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		// Task dies without deleting its file (simulating a crash): the
		// agent unregisters, orphaning 4 local + 2 remote chunks.
		agent.Close()
	})
	r.sim.Spawn("observer", func(p *simtime.Proc) {
		p.Sleep(GCInterval + 5*simtime.Second) // let at least one GC cycle run
		if free := r.svc.TotalFreeChunks(); free != 8 {
			t.Errorf("after GC free = %d of 8", free)
		}
		var freed int64
		for _, n := range perNode(t, r.svc, "sponge_gc_freed_chunks_total") {
			freed += n
		}
		if freed != 6 {
			t.Errorf("gc freed = %d chunks, want 6", freed)
		}
	})
	r.sim.MustRun()
}

func TestGCSparesLiveTasks(t *testing.T) {
	r := newRig(t, 2, 4, nil)
	r.sim.Spawn("live", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "live")
		if err := f.Write(p, pattern(6*r.svc.ChunkReal(), 8)); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		p.Sleep(3 * GCInterval) // several GC cycles while alive
		got := make([]byte, 0)
		buf := make([]byte, 4096)
		for {
			n, err := f.Read(p, buf)
			if err != nil {
				t.Errorf("read after GC cycles: %v", err)
				return
			}
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, pattern(6*r.svc.ChunkReal(), 8)) {
			t.Error("live task's data corrupted by GC")
		}
		f.Delete(p)
	})
	r.sim.MustRun()
}

// TestGCSparesUnreachableOwners holds the sweep's safety rule: a
// liveness query lost in the network counts as "alive". While the link
// to the owner's node is cut, node 1 keeps a live task's remote chunks
// and, after the task exits, its orphans too; the first sweep after the
// link heals frees exactly those.
func TestGCSparesUnreachableOwners(t *testing.T) {
	r := newRig(t, 2, 2, nil)
	faults := NewFaultTransport(r.svc.Transport(), FaultConfig{Seed: 1})
	r.svc.SetTransport(faults)
	r.sim.Spawn("task", func(p *simtime.Proc) {
		freed := func() int64 { return perNode(t, r.svc, "sponge_gc_freed_chunks_total")[1] }
		held := func() int { return r.svc.Servers[1].Pool().Chunks() - r.svc.Servers[1].Pool().Free() }
		agent := r.svc.NewAgent(r.c.Nodes[0])
		f := agent.Create(p, "stranded")
		if err := f.Write(p, pattern(4*r.svc.ChunkReal(), 10)); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		remote := f.Stats().ByKind[RemoteMem]
		if remote == 0 || held() != remote {
			t.Fatalf("node 1 holds %d chunks, file placed %d there; want a remote spill", held(), remote)
		}
		faults.Cut(0, 1)
		blocked := metricOf(t, r.svc, "sponge_fault_blocked_total")
		p.Sleep(2 * GCInterval)
		if got := held(); got != remote || freed() != 0 {
			t.Errorf("live task behind a cut link: node 1 holds %d of %d chunks, freed %d", got, remote, freed())
		}
		agent.Close()
		p.Sleep(2 * GCInterval)
		if got := held(); got != remote || freed() != 0 {
			t.Errorf("orphan behind a cut link: node 1 holds %d of %d chunks, freed %d", got, remote, freed())
		}
		if metricOf(t, r.svc, "sponge_fault_blocked_total") == blocked {
			t.Error("no exchange crossed the cut; the liveness queries were never lost")
		}
		faults.Heal(0, 1)
		p.Sleep(GCInterval)
		if got := held(); got != 0 || freed() != int64(remote) {
			t.Errorf("after the heal's first sweep node 1 holds %d chunks and freed %d, want 0 and %d", got, freed(), remote)
		}
	})
	r.sim.MustRun()
}

// A reclaim that beats the owner's Delete — a GC sweep after the agent
// closed — leaves the file holding a stale remote handle.
// The simulated peer answers that free the way the wire server does,
// with a status the file ignores, not with the pool's double-free panic.
func TestDeleteAfterRemoteChunkReclaimed(t *testing.T) {
	r := newRig(t, 2, 4, nil)
	r.sim.Spawn("task", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "reclaimed")
		if err := f.Write(p, pattern(5*r.svc.ChunkReal(), 9)); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		if st := f.Stats(); st.ByKind[RemoteMem] != 1 {
			t.Errorf("remote chunks = %d, want 1: %+v", st.ByKind[RemoteMem], st)
		}
		if n := r.svc.Servers[1].Pool().FreeOwnedBy(agent.Task()); n != 1 {
			t.Errorf("reclaimed %d chunks behind the file's back, want 1", n)
		}
		f.Delete(p)
	})
	r.sim.MustRun()
	if free := r.svc.TotalFreeChunks(); free != 8 {
		t.Errorf("free = %d of 8 after delete", free)
	}
	if out := r.svc.BufPoolStats().Outstanding(); out != 0 {
		t.Errorf("%d buffers outstanding after delete", out)
	}
}

func TestStaleTrackerFallsBackGracefully(t *testing.T) {
	// Two tasks race for the same remote pool: the tracker's snapshot
	// says both can use node 1, but it only fits 2 chunks; the loser
	// must fall back to disk without failing.
	r := newRig(t, 2, 2, func(c *ServiceConfig) { c.PollInterval = simtime.Hour })
	var stats [2]FileStats
	for ti := 0; ti < 2; ti++ {
		ti := ti
		r.sim.Spawn(fmt.Sprintf("task%d", ti), func(p *simtime.Proc) {
			agent := r.svc.NewAgent(r.c.Nodes[0])
			defer agent.Close()
			f := agent.Create(p, fmt.Sprintf("racer%d", ti))
			if err := f.Write(p, pattern(4*r.svc.ChunkReal(), byte(ti))); err != nil {
				t.Errorf("write: %v", err)
			}
			if err := f.Close(p); err != nil {
				t.Errorf("close: %v", err)
			}
			stats[ti] = f.Stats()
			f.Delete(p)
		})
	}
	r.sim.MustRun()
	totalRemote := stats[0].ByKind[RemoteMem] + stats[1].ByKind[RemoteMem]
	totalDisk := stats[0].ByKind[LocalDisk] + stats[1].ByKind[LocalDisk]
	if totalRemote != 2 {
		t.Fatalf("remote chunks = %d, want exactly the pool's 2", totalRemote)
	}
	if totalDisk != 4 {
		t.Fatalf("disk fallback chunks = %d, want 4", totalDisk)
	}
}

func TestQuotaForcesDiskFallback(t *testing.T) {
	r := newRig(t, 2, 8, func(c *ServiceConfig) { c.QuotaChunksPerTask = 2 })
	data := pattern(8*r.svc.ChunkReal(), 9)
	f := writeReadDelete(t, r, 0, data)
	st := f.Stats()
	if st.ByKind[LocalMem] != 2 || st.ByKind[RemoteMem] != 2 {
		t.Fatalf("quota not enforced: %+v", st.ByKind)
	}
	if st.ByKind[LocalDisk] != 4 {
		t.Fatalf("disk chunks = %d, want 4", st.ByKind[LocalDisk])
	}
}

// Property: any payload size round-trips intact through the allocator
// chain, and delete releases exactly the chunks that were allocated.
func TestPropertyFileRoundTrip(t *testing.T) {
	f := func(sizeRaw uint32, seed byte) bool {
		r := newRig(t, 3, 3, nil)
		size := int(sizeRaw % 200_000)
		if size == 0 {
			size = 1
		}
		data := pattern(size, seed)
		ok := true
		r.sim.Spawn("t", func(p *simtime.Proc) {
			agent := r.svc.NewAgent(r.c.Nodes[0])
			defer agent.Close()
			file := agent.Create(p, "prop")
			if err := file.Write(p, data); err != nil {
				ok = false
				return
			}
			if err := file.Close(p); err != nil {
				ok = false
				return
			}
			got := make([]byte, 0, size)
			buf := make([]byte, 4096)
			for {
				n, err := file.Read(p, buf)
				if err != nil {
					ok = false
					return
				}
				if n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
			if !bytes.Equal(got, data) {
				ok = false
			}
			file.Delete(p)
		})
		r.sim.MustRun()
		return ok && r.svc.TotalFreeChunks() == 9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRewindDropsStalePrefetch is the regression test for stale prefetch
// delivery: rewinding while a prefetch is in flight used to let the
// orphaned prefetcher deliver into a *post-rewind* prefetch of the same
// chunk index (the delivery check matched on index alone), double-filling
// the prefetch slot and leaking a chunk buffer. The generation counter
// makes the orphan a no-op; the buffer-pool accounting proves it.
func TestRewindDropsStalePrefetch(t *testing.T) {
	r := newRig(t, 3, 2, nil) // 2 local chunks, rest spill remote
	data := pattern(6*r.svc.ChunkReal(), 11)
	r.sim.Spawn("t", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "stale")
		if err := f.Write(p, data); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		// Step one byte into chunk 1: entering it kicks off a prefetch of
		// chunk 2 (the first remote chunk) and we rewind immediately, so
		// that fetch is still crossing the network when the second pass
		// starts its own prefetch of the same chunk index.
		intoChunk1 := func() {
			head := make([]byte, r.svc.ChunkReal()+1)
			for off := 0; off < len(head); {
				n, err := f.Read(p, head[off:])
				if err != nil || n == 0 {
					t.Errorf("head read: n=%d err=%v", n, err)
					return
				}
				off += n
			}
		}
		intoChunk1()
		f.Rewind()
		intoChunk1()
		// Park the reader so both the orphaned and the fresh prefetch
		// complete before anything is consumed: index-only stale matching
		// would let the orphan deliver first and the fresh fetch then
		// overwrite (and leak) its buffer.
		p.Sleep(5 * simtime.Second)
		// Finish the pass; the file was rewound once, so re-read from
		// chunk 1's second byte onward.
		got := append([]byte{}, data[:r.svc.ChunkReal()+1]...)
		buf := make([]byte, 4096)
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
			t.Error("post-rewind pass corrupt")
		}
		f.Delete(p)
	})
	r.sim.MustRun()
	if out := r.svc.BufPoolStats().Outstanding(); out != 0 {
		t.Fatalf("chunk buffers leaked: outstanding = %d", out)
	}
	if free := r.svc.TotalFreeChunks(); free != 6 {
		t.Fatalf("pool chunks leaked: free = %d of 6", free)
	}
}

// TestBufferRecyclingNoAliasing interleaves reads of two files that share
// the service's chunk-buffer pool — every fetch, hand-off and staging
// buffer is recycled between them — and checks neither file sees the
// other's bytes, then that every buffer returns to the pool on Delete.
func TestBufferRecyclingNoAliasing(t *testing.T) {
	r := newRig(t, 3, 2, nil)
	mk := func(seed byte) []byte { return pattern(5*r.svc.ChunkReal()+321, seed) }
	r.sim.Spawn("t", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		var files [2]*File
		for i := range files {
			f := agent.Create(p, fmt.Sprintf("alias%d", i))
			if err := f.Write(p, mk(byte(i)*7+1)); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
			if err := f.Close(p); err != nil {
				t.Errorf("close %d: %v", i, err)
			}
			files[i] = f
		}
		var got [2][]byte
		buf := make([]byte, 1000)
		readSome := func(i int, limit int) bool {
			for reads := 0; limit == 0 || reads < limit; reads++ {
				n, err := files[i].Read(p, buf)
				if err != nil {
					t.Errorf("read %d: %v", i, err)
					return false
				}
				if n == 0 {
					return false
				}
				got[i] = append(got[i], buf[:n]...)
			}
			return true
		}
		// Alternate single reads so the files' chunk buffers churn
		// through the shared pool together, until file 0 is drained.
		for readSome(0, 1) {
			readSome(1, 1)
		}
		if !bytes.Equal(got[0], mk(1)) {
			t.Error("file 0 read another file's bytes")
		}
		// Delete file 0 mid-way through file 1's read: every buffer it
		// held returns to the pool, and file 1's remaining fetches reuse
		// them. File 1's bytes must come out untouched.
		files[0].Delete(p)
		readSome(1, 0)
		if !bytes.Equal(got[1], mk(8)) {
			t.Error("file 1 observed bytes from a buffer recycled by Delete")
		}
		files[1].Delete(p)
	})
	r.sim.MustRun()
	st := r.svc.BufPoolStats()
	if st.Outstanding() != 0 {
		t.Fatalf("chunk buffers leaked: outstanding = %d (stats %+v)", st.Outstanding(), st)
	}
	if st.Misses >= st.Gets {
		t.Fatalf("no buffer was ever recycled: %+v", st)
	}
}

// TestEncryptedSpillRecyclesBuffers drives the in-place seal/open path
// (no sealed copy, uint64 nonces) through every spill medium and checks
// the plaintext round-trips and the buffer accounting closes.
func TestEncryptedSpillRecyclesBuffers(t *testing.T) {
	r := newRig(t, 2, 2, nil) // forces local mem + remote mem + disk
	data := pattern(9*r.svc.ChunkReal()+55, 13)
	r.sim.Spawn("t", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		agent.EnableEncryption([]byte("sponge secret"))
		f := agent.Create(p, "sealed")
		if err := f.Write(p, data); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		for pass := 0; pass < 2; pass++ {
			got := make([]byte, 0, len(data))
			buf := make([]byte, 4096)
			for {
				n, err := f.Read(p, buf)
				if err != nil {
					t.Errorf("pass %d read: %v", pass, err)
					return
				}
				if n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
			if !bytes.Equal(got, data) {
				t.Errorf("pass %d: decrypted bytes differ from plaintext", pass)
			}
			f.Rewind()
		}
		f.Delete(p)
	})
	r.sim.MustRun()
	if out := r.svc.BufPoolStats().Outstanding(); out != 0 {
		t.Fatalf("chunk buffers leaked: outstanding = %d", out)
	}
}

// TestFileWriteSteadyStateAllocationFree guards the local spill hot path:
// once the file's chunk list, the pool's owner ledger, and the event heap
// are warm, writing a full chunk must not allocate at all.
func TestFileWriteSteadyStateAllocationFree(t *testing.T) {
	r := newRig(t, 1, 512, func(c *ServiceConfig) { c.AsyncWriteDepth = 0 })
	r.sim.Spawn("t", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "steady")
		chunk := pattern(r.svc.ChunkReal(), 3)
		// Warm up past every amortized growth point (chunk list, held
		// list, event heap) while staying inside the 512-chunk pool.
		for i := 0; i < 300; i++ {
			if err := f.Write(p, chunk); err != nil {
				t.Errorf("warmup write: %v", err)
				return
			}
		}
		if avg := testing.AllocsPerRun(100, func() {
			if err := f.Write(p, chunk); err != nil {
				t.Errorf("write: %v", err)
			}
		}); avg != 0 {
			t.Errorf("steady-state Write allocates %.2f objects per chunk, want 0", avg)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		f.Delete(p)
	})
	r.sim.MustRun()
}

// TestFileRemoteSpillSteadyStateAllocationFree guards the remote spill
// hot path: with the async writers on and the local pool pinned by a
// decoy, writing a chunk that goes to remote memory — hand-off, writer
// spawn, candidate walk, allocate-and-write — and reading it back
// through the window must not allocate once the writer and fetcher
// records, chunk buffers and simulator are warm.
func TestFileRemoteSpillSteadyStateAllocationFree(t *testing.T) {
	r := newRig(t, 2, 512, nil)
	r.sim.Spawn("t", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		chunk := r.svc.ChunkReal()
		decoy := agent.Create(p, "decoy")
		if err := decoy.Write(p, pattern(512*chunk, 37)); err != nil {
			t.Errorf("decoy write: %v", err)
			return
		}
		if err := decoy.Close(p); err != nil {
			t.Errorf("decoy close: %v", err)
			return
		}
		f := agent.Create(p, "steady")
		data := pattern(chunk, 41)
		write := func() {
			if err := f.Write(p, data); err != nil {
				t.Errorf("write: %v", err)
			}
		}
		// 300 warm-up chunks and AllocsPerRun's 101 stay inside node 1's
		// 512-chunk pool and the chunk table's capacity.
		for i := 0; i < 300; i++ {
			write()
		}
		if avg := testing.AllocsPerRun(100, write); avg != 0 {
			t.Errorf("steady-state remote Write allocates %.2f objects per chunk, want 0", avg)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
			return
		}
		if remote := f.Stats().ByKind[RemoteMem]; remote != 401 {
			t.Errorf("expected all 401 chunks remote, got %d", remote)
			return
		}
		buf := make([]byte, chunk)
		read := func() {
			for off := 0; off < chunk; {
				n, err := f.Read(p, buf[off:])
				if err != nil || n == 0 {
					t.Errorf("read: n=%d err=%v", n, err)
					return
				}
				off += n
			}
			if !bytes.Equal(buf, data) {
				t.Error("read-back differs from the written chunk")
			}
		}
		for i := 0; i < 250; i++ {
			read()
		}
		if avg := testing.AllocsPerRun(100, read); avg != 0 {
			t.Errorf("steady-state read-back allocates %.2f objects per chunk, want 0", avg)
		}
		f.Delete(p)
		decoy.Delete(p)
	})
	r.sim.MustRun()
	if out := r.svc.BufPoolStats().Outstanding(); out != 0 {
		t.Fatalf("chunk buffers leaked: outstanding = %d", out)
	}
}

// TestRecycledRecordsLeaveNoTrace runs two files back to back on one
// service, the second on the writer and fetcher records the first left
// on the free lists. A stale candidate — node 1 advertises free chunks
// but its pool is full — refuses, and every exchange is slowed so that
// several writers park on it in the middle of their candidate walk. Both
// files must place every chunk alike and read back their own bytes, the
// second must make no new record, and once each file is deleted no
// record on either list may reference a File.
func TestRecycledRecordsLeaveNoTrace(t *testing.T) {
	r := newRig(t, 3, 8, func(c *ServiceConfig) {
		c.AsyncWriteDepth = 3
		c.PollInterval = simtime.Hour // the tracker never learns node 1 filled
	})
	r.svc.SetTransport(NewFaultTransport(r.svc.Transport(), FaultConfig{Delay: 5 * simtime.Millisecond}))
	lists := func() (writers, fetchers int) {
		for cw := r.svc.cwFree; cw != nil; cw = cw.next {
			if cw.f != nil || cw.payload != nil {
				t.Error("a free writer record references a file or its payload")
			}
			writers++
		}
		for rf := r.svc.raFree; rf != nil; rf = rf.next {
			if rf.f != nil {
				t.Error("a free fetcher record references a file")
			}
			fetchers++
		}
		return writers, fetchers
	}
	type placement struct{ kind, node int }
	var places [2][]placement
	var records [2][2]int
	r.sim.Spawn("t", func(p *simtime.Proc) {
		// Past the tracker's first poll, pin node 0's pool (no local
		// chunk) and node 1's (a stale candidate) under a live task.
		p.Sleep(simtime.Second)
		for _, node := range []int{0, 1} {
			holder := r.svc.NewAgent(r.c.Nodes[node])
			defer holder.Close()
			pool := r.svc.Servers[node].Pool()
			for pool.Free() > 0 {
				if _, err := pool.Alloc(holder.Task()); err != nil {
					t.Errorf("pin node %d: %v", node, err)
					return
				}
			}
		}
		chunk := r.svc.ChunkReal()
		for i := range places {
			fails := metricOf(t, r.svc, `sponge_remote_alloc_fails_total{node="1"}`)
			agent := r.svc.NewAgent(r.c.Nodes[0])
			f := agent.Create(p, fmt.Sprintf("f%d", i))
			data := pattern(6*chunk+chunk/2, byte(43+i))
			if err := f.Write(p, data); err != nil {
				t.Errorf("file %d write: %v", i, err)
				return
			}
			if err := f.Close(p); err != nil {
				t.Errorf("file %d close: %v", i, err)
				return
			}
			if n := metricOf(t, r.svc, `sponge_remote_alloc_fails_total{node="1"}`) - fails; n < 2 {
				t.Errorf("file %d: node 1 refused %d writers, want ≥ 2 parked on it at once", i, n)
			}
			for _, ref := range f.chunks {
				places[i] = append(places[i], placement{int(ref.kind), ref.node})
			}
			got := make([]byte, 0, len(data))
			buf := make([]byte, 4096)
			for {
				n, err := f.Read(p, buf)
				if err != nil {
					t.Errorf("file %d read: %v", i, err)
					return
				}
				if n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
			if !bytes.Equal(got, data) {
				t.Errorf("file %d read back other bytes than it wrote", i)
			}
			f.Delete(p)
			agent.Close()
			w, fe := lists()
			records[i] = [2]int{w, fe}
		}
	})
	r.sim.MustRun()
	if len(places[0]) != 7 || !slices.Equal(places[0], places[1]) {
		t.Errorf("placements differ: first file %v, second %v", places[0], places[1])
	}
	for _, pl := range places[0] {
		if pl != (placement{int(RemoteMem), 2}) {
			t.Errorf("chunk placed %v, want remote memory on node 2", pl)
		}
	}
	if records[0][0] == 0 || records[0][1] == 0 {
		t.Errorf("free lists after the first file: %d writers, %d fetchers; want both in use", records[0][0], records[0][1])
	}
	if records[1] != records[0] {
		t.Errorf("the second file made records: lists %v after the first file, %v after the second", records[0], records[1])
	}
	if out := r.svc.BufPoolStats().Outstanding(); out != 0 {
		t.Fatalf("chunk buffers leaked: outstanding = %d", out)
	}
}

// TestRewindMidWindow rewinds with a full readahead window in flight:
// with depth K, K fetches are mid-network when the cursor resets. Every
// orphaned result must be dropped and its buffer recycled exactly once —
// double delivery would corrupt the second pass, a missed recycle shows
// up as a non-zero buffer-pool balance.
func TestRewindMidWindow(t *testing.T) {
	r := newRig(t, 3, 2, nil) // 2 local chunks; chunks 2..5 spill remote
	data := pattern(8*r.svc.ChunkReal(), 17)
	r.sim.Spawn("t", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "midwindow")
		if err := f.Write(p, data); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		// One byte into chunk 0 fills the whole window: the scan skips the
		// local chunks and launches a fetch for each remote one, so all
		// ReadAheadDepth fetches are crossing the network right now.
		one := make([]byte, 1)
		if n, err := f.Read(p, one); n != 1 || err != nil {
			t.Errorf("first read: n=%d err=%v", n, err)
		}
		f.Rewind()
		// Full pass after the rewind: the re-reads race the orphaned
		// fetches for the same chunk indices.
		got := make([]byte, 0, len(data))
		buf := make([]byte, 4096)
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
			t.Error("post-rewind pass corrupt")
		}
		p.Sleep(5 * simtime.Second) // let every orphan land before Delete
		f.Delete(p)
	})
	r.sim.MustRun()
	if out := r.svc.BufPoolStats().Outstanding(); out != 0 {
		t.Fatalf("chunk buffers leaked: outstanding = %d", out)
	}
	if free := r.svc.TotalFreeChunks(); free != 6 {
		t.Fatalf("pool chunks leaked: free = %d of 6", free)
	}
}

// TestDeleteMidWindow deletes the file while the window is full. Delete
// must wait out the in-flight fetches before freeing pool chunks — a
// fetcher mid-exchange still dereferences the chunk table — and every
// orphaned result must be recycled.
func TestDeleteMidWindow(t *testing.T) {
	r := newRig(t, 3, 2, nil)
	data := pattern(8*r.svc.ChunkReal(), 19)
	r.sim.Spawn("t", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "delwindow")
		if err := f.Write(p, data); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		one := make([]byte, 1)
		if n, err := f.Read(p, one); n != 1 || err != nil {
			t.Errorf("read: n=%d err=%v", n, err)
		}
		// The window is full of in-flight fetches; delete out from under it.
		f.Delete(p)
	})
	r.sim.MustRun()
	if out := r.svc.BufPoolStats().Outstanding(); out != 0 {
		t.Fatalf("chunk buffers leaked: outstanding = %d", out)
	}
	if free := r.svc.TotalFreeChunks(); free != 6 {
		t.Fatalf("pool chunks leaked: free = %d of 6", free)
	}
}

// TestWindowRetriesKeepOrder runs a windowed read over a lossy transport:
// dropped fetches are retried inside their window slot, delaying only
// that slot, and the reader still sees every byte in order.
func TestWindowRetriesKeepOrder(t *testing.T) {
	r := newRig(t, 3, 2, nil)
	// Seed 5 drops two fetches, each recovered inside the retry budget.
	r.svc.SetTransport(NewFaultTransport(r.svc.Transport(), FaultConfig{
		Seed:     5,
		DropRate: 0.3,
	}))
	data := pattern(8*r.svc.ChunkReal(), 23)
	r.sim.Spawn("t", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "lossy")
		if err := f.Write(p, data); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		got := make([]byte, 0, len(data))
		buf := make([]byte, 4096)
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
			t.Error("lossy windowed read reordered or corrupted bytes")
		}
		f.Delete(p)
	})
	r.sim.MustRun()
	if n := r.svc.metrics.retriesRead.Value(); n == 0 {
		t.Error("expected the lossy transport to force at least one fetch retry")
	}
	if out := r.svc.BufPoolStats().Outstanding(); out != 0 {
		t.Fatalf("chunk buffers leaked: outstanding = %d", out)
	}
}

// TestFileReadSteadyStateAllocationFree guards the windowed read hot
// path: with the window warm — fetcher blocks on the free list, chunk
// buffers recycling through the pool, processes reused by the simulator —
// consuming a remote chunk must not allocate at all.
func TestFileReadSteadyStateAllocationFree(t *testing.T) {
	r := newRig(t, 2, 512, nil)
	r.sim.Spawn("t", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		chunk := r.svc.ChunkReal()
		// A decoy file pins the whole local pool so every chunk of the
		// measured file spills to node 1's remote memory — the path the
		// window actually exercises.
		decoy := agent.Create(p, "decoy")
		if err := decoy.Write(p, pattern(512*chunk, 29)); err != nil {
			t.Errorf("decoy write: %v", err)
			return
		}
		if err := decoy.Close(p); err != nil {
			t.Errorf("decoy close: %v", err)
			return
		}
		f := agent.Create(p, "steady")
		if err := f.Write(p, pattern(460*chunk, 31)); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
			return
		}
		if remote := f.Stats().ByKind[RemoteMem]; remote != 460 {
			t.Errorf("expected all 460 chunks remote, got %d", remote)
			return
		}
		buf := make([]byte, chunk)
		readChunk := func() {
			for off := 0; off < chunk; {
				n, err := f.Read(p, buf[off:])
				if err != nil || n == 0 {
					t.Errorf("read: n=%d err=%v", n, err)
					return
				}
				off += n
			}
		}
		// Warm past every amortized growth point: window slots, fetcher
		// free list, buffer pool, process pool, event heap, signal queues.
		for i := 0; i < 300; i++ {
			readChunk()
		}
		if avg := testing.AllocsPerRun(100, readChunk); avg != 0 {
			t.Errorf("steady-state windowed Read allocates %.2f objects per chunk, want 0", avg)
		}
		f.Delete(p)
		decoy.Delete(p)
	})
	r.sim.MustRun()
	if out := r.svc.BufPoolStats().Outstanding(); out != 0 {
		t.Fatalf("chunk buffers leaked: outstanding = %d", out)
	}
}

func TestPrefetchOverlapsRemoteReads(t *testing.T) {
	measure := func(depth int) simtime.Duration {
		r := newRig(t, 3, 2, func(c *ServiceConfig) { c.ReadAheadDepth = depth })
		var d simtime.Duration
		r.sim.Spawn("t", func(p *simtime.Proc) {
			agent := r.svc.NewAgent(r.c.Nodes[0])
			defer agent.Close()
			f := agent.Create(p, "pf")
			if err := f.Write(p, pattern(6*r.svc.ChunkReal(), 1)); err != nil {
				t.Errorf("write: %v", err)
			}
			if err := f.Close(p); err != nil {
				t.Errorf("close: %v", err)
			}
			start := p.Now()
			buf := make([]byte, 4096)
			for {
				n, err := f.Read(p, buf)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if n == 0 {
					break
				}
				// Simulate per-buffer compute so prefetch has time to
				// overlap the next chunk's network fetch.
				p.Sleep(3 * simtime.Millisecond)
			}
			d = p.Now().Sub(start)
			f.Delete(p)
		})
		r.sim.MustRun()
		return d
	}
	with, without := measure(DefaultConfig().ReadAheadDepth), measure(0)
	if with >= without {
		t.Fatalf("prefetch should speed up remote reads: with=%v without=%v", with, without)
	}
}
