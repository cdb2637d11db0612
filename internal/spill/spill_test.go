package spill

import (
	"bytes"
	"testing"
	"testing/quick"

	"spongefiles/internal/cluster"
	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
	"spongefiles/internal/sponge"
)

func rig(spongeMB int64) (*simtime.Sim, *cluster.Cluster, *sponge.Service) {
	cfg := cluster.PaperConfig()
	cfg.Workers = 2
	cfg.SpongeMemory = spongeMB * media.MB
	sim := simtime.New()
	c := cluster.New(sim, cfg)
	svc := sponge.Start(c, sponge.DefaultConfig())
	return sim, c, svc
}

// spillLifecycle exercises one Target through the full spill lifecycle.
func spillLifecycle(t *testing.T, target Target, p *simtime.Proc, size int) {
	t.Helper()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 17)
	}
	f := target.Create(p, "spill")
	if err := f.Write(p, data[:size/2]); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Write(p, data[size/2:]); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Close(p); err != nil {
		t.Fatalf("close: %v", err)
	}
	if f.Size() != int64(size) {
		t.Fatalf("size = %d, want %d", f.Size(), size)
	}
	for pass := 0; pass < 2; pass++ {
		got := make([]byte, 0, size)
		buf := make([]byte, 777)
		for {
			n, err := f.Read(p, buf)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("pass %d corrupt", pass)
		}
		f.Rewind()
	}
	f.Delete(p)
}

func TestDiskTargetRoundTrip(t *testing.T) {
	sim, c, _ := rig(0)
	sim.Spawn("t", func(p *simtime.Proc) {
		target := NewDiskTarget(c.Nodes[0])
		spillLifecycle(t, target, p, 100_000)
		st := target.Stats()
		if st.Files != 1 || st.BytesReal != 100_000 {
			t.Errorf("stats = %+v", st)
		}
		if st.RemoteMode {
			t.Error("disk target must not claim remote mode")
		}
		if st.Machines != 1 {
			t.Errorf("machines = %d", st.Machines)
		}
	})
	sim.MustRun()
}

func TestSpongeTargetRoundTrip(t *testing.T) {
	sim, c, svc := rig(2) // 2 chunks local: forces remote chunks too
	sim.Spawn("t", func(p *simtime.Proc) {
		target := NewSpongeTarget(svc, c.Nodes[0])
		defer target.Close()
		spillLifecycle(t, target, p, 6*svc.ChunkReal())
		st := target.Stats()
		if !st.RemoteMode {
			t.Error("sponge target must claim remote mode")
		}
		if st.Chunks == 0 || st.BytesReal == 0 {
			t.Errorf("stats = %+v", st)
		}
		if st.Machines < 2 {
			t.Errorf("machines = %d, expected remote involvement", st.Machines)
		}
	})
	sim.MustRun()
}

func TestDiskTargetChargesIO(t *testing.T) {
	sim, c, _ := rig(0)
	var d simtime.Duration
	sim.Spawn("t", func(p *simtime.Proc) {
		target := NewDiskTarget(c.Nodes[0])
		f := target.Create(p, "x")
		start := p.Now()
		if err := f.Write(p, make([]byte, c.Cfg.R(64*media.MB))); err != nil {
			t.Error(err)
		}
		d = p.Now().Sub(start)
	})
	sim.MustRun()
	// 64 virtual MB must cost real virtual time (at least memcpy rate).
	if d < 50*simtime.Millisecond {
		t.Fatalf("write charged only %v", d)
	}
}

func TestFactories(t *testing.T) {
	sim, c, svc := rig(4)
	sim.Spawn("t", func(p *simtime.Proc) {
		if tg := DiskFactory()(c.Nodes[0]); tg.Stats().RemoteMode {
			t.Error("DiskFactory produced remote-mode target")
		}
		tg := SpongeFactory(svc)(c.Nodes[1])
		if !tg.Stats().RemoteMode {
			t.Error("SpongeFactory produced non-remote target")
		}
		tg.Close()
	})
	sim.MustRun()
}

// Property: both targets round-trip arbitrary payloads identically.
func TestPropertyTargetsAgree(t *testing.T) {
	f := func(sizeRaw uint16, seed byte) bool {
		size := int(sizeRaw)%50_000 + 1
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i)*seed + seed
		}
		ok := true
		sim, c, svc := rig(2)
		sim.Spawn("t", func(p *simtime.Proc) {
			for _, target := range []Target{
				NewDiskTarget(c.Nodes[0]),
				NewSpongeTarget(svc, c.Nodes[0]),
			} {
				f := target.Create(p, "prop")
				if err := f.Write(p, data); err != nil {
					ok = false
					return
				}
				if err := f.Close(p); err != nil {
					ok = false
					return
				}
				got := make([]byte, 0, size)
				buf := make([]byte, 4096)
				for {
					n, err := f.Read(p, buf)
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
				f.Delete(p)
				target.Close()
			}
		})
		sim.MustRun()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
