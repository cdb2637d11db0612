package media

import (
	"testing"

	"spongefiles/internal/simtime"
)

func TestCrossRackTransferUsesUplinks(t *testing.T) {
	sim := simtime.New()
	net := NewNetwork()
	a, b := net.NewNIC("a"), net.NewNIC("b")
	net.AssignRack(a, 0)
	net.AssignRack(b, 1)
	sim.Spawn("t", func(p *simtime.Proc) {
		net.Transfer(p, a, b, 10*MB)
	})
	sim.MustRun()
	if net.CrossRackBytes != 10*MB {
		t.Fatalf("cross-rack bytes = %d", net.CrossRackBytes)
	}
}

func TestSameRackAvoidsUplinks(t *testing.T) {
	sim := simtime.New()
	net := NewNetwork()
	a, b := net.NewNIC("a"), net.NewNIC("b")
	net.AssignRack(a, 0)
	net.AssignRack(b, 0)
	sim.Spawn("t", func(p *simtime.Proc) {
		net.Transfer(p, a, b, 10*MB)
	})
	sim.MustRun()
	if net.CrossRackBytes != 0 {
		t.Fatalf("same-rack transfer counted as cross-rack: %d", net.CrossRackBytes)
	}
}

func TestUplinkSerializesCrossRackFlows(t *testing.T) {
	// Many simultaneous cross-rack flows from distinct senders must
	// queue on the shared uplink, while the same flows within a rack
	// would overlap freely.
	run := func(sameRack bool) simtime.Duration {
		sim := simtime.New()
		net := NewNetwork()
		const flows = 8
		var end simtime.Time
		for i := 0; i < flows; i++ {
			src := net.NewNIC("s")
			dst := net.NewNIC("d")
			net.AssignRack(src, 0)
			if sameRack {
				net.AssignRack(dst, 0)
			} else {
				net.AssignRack(dst, 1)
			}
			sim.Spawn("flow", func(p *simtime.Proc) {
				net.Transfer(p, src, dst, 100*MB)
				if p.Now() > end {
					end = p.Now()
				}
			})
		}
		sim.MustRun()
		return simtime.Duration(end)
	}
	same, cross := run(true), run(false)
	// 8 × 100 MB: in-rack they run in parallel (~0.84 s); cross-rack
	// they serialize on a 476 MB/s uplink (~1.7 s).
	if cross < same*3/2 {
		t.Fatalf("uplink oversubscription missing: same=%v cross=%v", same, cross)
	}
}
