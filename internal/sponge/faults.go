package sponge

import (
	"fmt"
	"math/rand"
	"sync"

	"spongefiles/internal/cluster"
	"spongefiles/internal/obs"
	"spongefiles/internal/simtime"
)

// FaultConfig tunes the fault-injecting transport wrapper. The paper's
// protocols are built to tolerate a faulty network — stale free lists,
// lost messages, dead nodes (§3.1.1) — and this wrapper produces those
// conditions on demand, deterministically, over either transport.
type FaultConfig struct {
	// Seed drives the deterministic fault stream; runs with the same
	// seed, rates, and operation order inject the same faults.
	Seed int64
	// DropRate is the probability an exchange is lost in transit: the
	// caller waits out faultTimeout in virtual time and gets
	// ErrPeerUnreachable. The request never reaches the peer (request
	// loss, not response loss — the peer performs no side effect).
	DropRate float64
	// Delay is extra virtual latency added to every delivered exchange.
	Delay simtime.Duration
}

// faultTimeout is the virtual time a caller waits before concluding an
// exchange was dropped or partitioned away.
const faultTimeout = 100 * simtime.Millisecond

// linkKey identifies an undirected node pair.
type linkKey struct{ a, b int }

func link(a, b int) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// FaultTransport wraps any Transport and injects the paper's network
// faults (§3.1.1): random drops, a fixed delivery delay, and cut links —
// a partition is the set of links cut between its sides. Loopback
// exchanges (caller and peer on the same node) never traverse the
// network and are delivered untouched.
//
// The wrapper is deterministic under the simulator: one process runs at
// a time, so the seeded random stream is consumed in a fixed order and a
// given (seed, rates, workload) triple always injects the same faults.
type FaultTransport struct {
	inner Transport
	cfg   FaultConfig

	mu       sync.Mutex
	rng      *rand.Rand
	cutLinks map[linkKey]bool

	// What the wrapper did to the traffic: exchanges attempted, lost in
	// transit, refused by a partition. Nil — nothing is counted — until
	// AttachMetrics; counting draws no randomness, so attaching never
	// perturbs the fault stream.
	exchanges, drops, blocked *obs.Counter
}

// NewFaultTransport wraps inner with fault injection per cfg.
func NewFaultTransport(inner Transport, cfg FaultConfig) *FaultTransport {
	return &FaultTransport{
		inner:    inner,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		cutLinks: make(map[linkKey]bool),
	}
}

// Cut partitions the link between two nodes (both directions): every
// exchange across it times out until Heal.
func (ft *FaultTransport) Cut(a, b int) {
	ft.mu.Lock()
	ft.cutLinks[link(a, b)] = true
	ft.mu.Unlock()
}

// Heal restores the link between two nodes.
func (ft *FaultTransport) Heal(a, b int) {
	ft.mu.Lock()
	delete(ft.cutLinks, link(a, b))
	ft.mu.Unlock()
}

// SetDropRate replaces the global drop probability at runtime — the
// scenario harness's drop-rate ramps (degrade mid-job, recover later).
// A cut link stays cut whatever the rate. Changing the rate consumes no
// randomness: the roll stream depends only on exchange order, so a ramp
// at a fixed workload point is as deterministic as a fixed rate.
func (ft *FaultTransport) SetDropRate(rate float64) {
	ft.mu.Lock()
	ft.cfg.DropRate = rate
	ft.mu.Unlock()
}

// AttachMetrics counts the wrapper's traffic from here on in reg's
// sponge_fault_*_total series, the one record of it; Service.SetTransport
// calls it. Attaching consumes no randomness and charges no virtual time,
// so the injected fault stream is bit-identical with or without metrics.
func (ft *FaultTransport) AttachMetrics(reg *obs.Registry) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.exchanges = reg.Counter("sponge_fault_exchanges_total")
	ft.drops = reg.Counter("sponge_fault_drops_total")
	ft.blocked = reg.Counter("sponge_fault_blocked_total")
}

// Peer returns the fault-wrapped handle on a node's server.
func (ft *FaultTransport) Peer(node int) Peer {
	return faultPeer{ft: ft, node: node, inner: ft.inner.Peer(node)}
}

// RevokePeer forwards a peer revocation to the wrapped transport,
// so fd/mmap teardown reaches the real transport under fault injection.
func (ft *FaultTransport) RevokePeer(node int) {
	if r, ok := ft.inner.(peerRevoker); ok {
		r.RevokePeer(node)
	}
}

// decide rolls the fault dice for one exchange from -> to and reports
// whether it is lost, partitioned away or dropped in transit. The roll is
// consumed even when the exchange is partitioned, so the random stream
// depends only on the exchange order, not on the configured rates.
func (ft *FaultTransport) decide(from, to int) (lost bool) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if ft.exchanges != nil {
		ft.exchanges.Inc()
	}
	dropRoll := ft.rng.Float64()
	// A second number is drawn and discarded: the retired fast-error
	// class rolled it, and drawing it still keeps every seeded fault
	// stream — and so every recorded fault run — where it was.
	ft.rng.Float64()
	if ft.cutLinks[link(from, to)] {
		if ft.blocked != nil {
			ft.blocked.Inc()
		}
		return true
	}
	if dropRoll < ft.cfg.DropRate {
		if ft.drops != nil {
			ft.drops.Inc()
		}
		return true
	}
	return false
}

// exchange applies the fault decision for one exchange, returning a
// non-nil error when the exchange is lost. Loopback traffic is exempt.
func (ft *FaultTransport) exchange(p *simtime.Proc, from, to int) error {
	if from == to {
		return nil
	}
	if ft.decide(from, to) {
		p.Sleep(faultTimeout)
		return fmt.Errorf("%w: exchange node%d->node%d timed out", ErrPeerUnreachable, from, to)
	}
	if ft.cfg.Delay > 0 {
		p.Sleep(ft.cfg.Delay)
	}
	return nil
}

// faultPeer interposes the fault decision before every operation on one
// peer.
type faultPeer struct {
	ft    *FaultTransport
	node  int
	inner Peer
}

func (fp faultPeer) AllocWrite(p *simtime.Proc, from *cluster.Node, owner TaskID, data []byte) (int, error) {
	if err := fp.ft.exchange(p, from.ID, fp.node); err != nil {
		return 0, err
	}
	return fp.inner.AllocWrite(p, from, owner, data)
}

func (fp faultPeer) Read(p *simtime.Proc, to *cluster.Node, handle int, buf []byte) (int, error) {
	if err := fp.ft.exchange(p, to.ID, fp.node); err != nil {
		return 0, err
	}
	return fp.inner.Read(p, to, handle, buf)
}

func (fp faultPeer) Free(p *simtime.Proc, from *cluster.Node, handle int) error {
	if err := fp.ft.exchange(p, from.ID, fp.node); err != nil {
		return err
	}
	return fp.inner.Free(p, from, handle)
}

func (fp faultPeer) FreeSpace(p *simtime.Proc, from *cluster.Node) (int, error) {
	if err := fp.ft.exchange(p, from.ID, fp.node); err != nil {
		return 0, err
	}
	return fp.inner.FreeSpace(p, from)
}

func (fp faultPeer) TaskAlive(p *simtime.Proc, from *cluster.Node, pid int64) (bool, error) {
	if err := fp.ft.exchange(p, from.ID, fp.node); err != nil {
		return false, err
	}
	return fp.inner.TaskAlive(p, from, pid)
}
