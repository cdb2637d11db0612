// Package media models the hardware a SpongeFiles cluster runs on: disks
// with an operating-system page cache, network interfaces, and the memory
// bus. Devices charge virtual time on a simtime.Sim; all byte quantities
// are in *virtual* bytes (the paper's scale), which the cluster layer
// derives from real payload sizes via its scale factor.
//
// The models are deliberately mechanistic rather than curve-fitted: disk
// cost is seek + bytes/bandwidth with a seek charged on every stream
// switch, the page cache absorbs writes and serves re-reads with a
// background flusher writing dirty data back, and network transfers hold
// both endpoints' NICs for bytes/bandwidth plus a round-trip latency.
// The paper's headline effects (disk collapse under contention, buffer
// cache absorption, merge seek storms) are emergent from these rules.
package media

import (
	"fmt"

	"spongefiles/internal/simtime"
)

const (
	// KB, MB, GB are virtual byte units (binary).
	KB int64 = 1 << 10
	MB int64 = 1 << 20
	GB int64 = 1 << 30
)

// The device constants of the paper's testbed (§4.1): two quad-core
// Xeons, 16 GB RAM, a 7200 rpm 300 GB ATA disk, and 1 GbE, calibrated to
// reproduce Table 1's microbenchmark ordering. Every cluster runs on it.
const (
	// memBW is memory-copy bandwidth in virtual bytes/second.
	memBW = 1 * GB // 1 MB memcpy ≈ 1 ms
	// ipcMsgLatency is the cost of one message over a local socket
	// (context switches included); a local sponge-server operation
	// exchanges ipcMsgsPerOp of them.
	ipcMsgLatency = 1250 * simtime.Microsecond
	ipcMsgsPerOp  = 4

	// netBW is NIC bandwidth in virtual bytes/second; netRTT is the
	// round-trip latency of one request/response exchange. uplinkBW is
	// the aggregate bandwidth of one rack's off-rack uplink — data
	// centers oversubscribe it heavily, which is why the paper restricts
	// spilling to within a rack (§3.1.1).
	netBW    = 119 * MB // 1 Gb/s
	netRTT   = 200 * simtime.Microsecond
	uplinkBW = 4 * 119 * MB // 10:1 oversubscription for a 40-node rack

	// diskSeek is the average seek + rotational delay; diskBW is
	// sequential transfer bandwidth in virtual bytes/second.
	diskSeek = 8 * simtime.Millisecond
	diskBW   = 64 * MB

	// ReadAhead is the granularity of streaming read operations (the
	// OS readahead window). flushBatch is the size of one background
	// writeback burst. dirtyRatio is the fraction of the page cache
	// that may be dirty before writers are throttled.
	ReadAhead  = 8 * MB
	flushBatch = 8 * MB
	dirtyRatio = 0.2 // Linux's default dirty_ratio
)

// IPCOpTime is the fixed message overhead of one local sponge-server
// operation (excluding data copies).
const IPCOpTime = ipcMsgsPerOp * ipcMsgLatency

// CopyTime returns the duration of a memory copy of n virtual bytes.
// Memory is uncontended: per-node bandwidth is far above what one
// spilling task consumes.
func CopyTime(n int64) simtime.Duration {
	return bwTime(n, memBW)
}

func bwTime(n, bw int64) simtime.Duration {
	return simtime.Duration(float64(n) / float64(bw) * float64(simtime.Second))
}

// NIC is one node's network interface: independent transmit and receive
// sides, each a FIFO resource carrying one flow at a time at full
// bandwidth.
type NIC struct {
	id int
	tx *simtime.Resource
	rx *simtime.Resource
}

// Network connects NICs. Within a rack
// the switch is non-blocking; traffic between racks also crosses both
// racks' oversubscribed uplinks when a rack topology is configured.
type Network struct {
	nextID int

	// rackOf maps a NIC id to its rack; uplinks holds one shared
	// uplink resource per rack. Empty = a single flat switch.
	rackOf  map[int]int
	uplinks map[int]*simtime.Resource

	// CrossRackBytes counts traffic that crossed rack boundaries.
	CrossRackBytes int64
}

// NewNetwork returns a network with one flat switch.
func NewNetwork() *Network {
	return &Network{}
}

// NewNIC creates a NIC attached to this network.
func (n *Network) NewNIC(name string) *NIC {
	n.nextID++
	return &NIC{
		id: n.nextID,
		tx: simtime.NewResource(name+".tx", 1),
		rx: simtime.NewResource(name+".rx", 1),
	}
}

// AssignRack places a NIC in a rack; once any NIC has a rack, transfers
// between different racks serialize through both racks' uplinks.
func (n *Network) AssignRack(nic *NIC, rack int) {
	if n.rackOf == nil {
		n.rackOf = make(map[int]int)
		n.uplinks = make(map[int]*simtime.Resource)
	}
	n.rackOf[nic.id] = rack
	if _, ok := n.uplinks[rack]; !ok {
		n.uplinks[rack] = simtime.NewResource(fmt.Sprintf("rack%d.uplink", rack), 1)
	}
}

// Transfer moves nbytes from one NIC to another, holding the sender's tx
// and receiver's rx sides for the transfer duration plus one round trip.
// Cross-rack transfers additionally serialize through both racks'
// uplinks at the (oversubscribed) uplink bandwidth. Loopback transfers
// (same NIC) charge only a memory copy. Resources are acquired in a
// global order to exclude deadlock.
func (n *Network) Transfer(p *simtime.Proc, from, to *NIC, nbytes int64) {
	if from == to {
		p.Sleep(CopyTime(nbytes))
		return
	}
	a, b := from.tx, to.rx
	if to.id < from.id {
		// Keep a fixed global acquisition order: lower NIC id first.
		b, a = from.tx, to.rx
	}
	a.Acquire(p)
	b.Acquire(p)
	fromRack, toRack := n.rackOf[from.id], n.rackOf[to.id]
	if n.rackOf != nil && fromRack != toRack {
		// Hold both uplinks (ordered by rack id) for the slower hop.
		ra, rb := n.uplinks[fromRack], n.uplinks[toRack]
		if toRack < fromRack {
			ra, rb = rb, ra
		}
		ra.Acquire(p)
		rb.Acquire(p)
		p.Sleep(netRTT + bwTime(nbytes, min(netBW, uplinkBW)))
		rb.Release()
		ra.Release()
		n.CrossRackBytes += nbytes
	} else {
		p.Sleep(netRTT + bwTime(nbytes, netBW))
	}
	b.Release()
	a.Release()
}

// RPC performs a small request/large response (or vice versa) exchange:
// one round trip plus the transfer time of both payloads.
func (n *Network) RPC(p *simtime.Proc, from, to *NIC, reqBytes, respBytes int64) {
	n.Transfer(p, from, to, reqBytes)
	n.Transfer(p, to, from, respBytes)
}

func (nic *NIC) String() string { return fmt.Sprintf("nic%d", nic.id) }
