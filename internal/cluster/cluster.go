// Package cluster assembles simulated machines into the rack-structured
// clusters the paper runs on: each node owns a disk (with a page cache
// sized from its free memory), a NIC, task slots, and optionally a region
// of sponge memory. It also owns the scale factor that maps the real
// bytes engines move in-process to the virtual bytes devices charge for.
package cluster

import (
	"fmt"

	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
)

// Config describes one cluster. All byte quantities are virtual bytes.
type Config struct {
	// Workers is the number of worker nodes (the paper: 29 workers plus
	// one master; the master runs no tasks and is not modeled as a node).
	Workers int
	// NodesPerRack controls rack assignment; the paper's clusters spill
	// only within a rack of at most 40 machines.
	NodesPerRack int
	// Scale is virtual bytes per real byte: engines move real payloads
	// of size n and devices charge for n*Scale. Scale 64 lets a virtual
	// 10 GB job carry ~160 MB of real data.
	Scale int64

	// NodeMemory is total physical memory per node. MapSlots counts the
	// map JVMs, each with a heap of mapHeap, beside the one reduce JVM,
	// whose heap is ReduceHeap (the merge memory, and Pig's bag budget).
	// SpongeMemory is the shared sponge pool reserved outside the heaps
	// (0 = stock Hadoop). What remains after osReserve becomes the page
	// cache. The MapReduce engine counts each node's free slots from
	// MapSlots and ReduceSlots.
	NodeMemory   int64
	MapSlots     int
	ReduceHeap   int64
	SpongeMemory int64
}

// The carve-up's fixed part (§4.2.2), which no experiment varies: a map
// JVM's heap (Figure 6's no-spill baseline enlarges the reduce JVM
// alone), one reduce slot per node, and the kernel's and daemons' share.
const (
	mapHeap     = 1 * media.GB
	ReduceSlots = 1
	osReserve   = 512 * media.MB
)

// minCache is the page-cache floor: the kernel always keeps some cache.
const minCache = 64 * media.MB

// PaperConfig returns the testbed of §4.2.2: 29 workers in one rack,
// 16 GB nodes, two map slots and one reduce slot with 1 GB heaps, 1 GB of
// sponge memory, 1 GbE and a 7200 rpm disk.
func PaperConfig() Config {
	return Config{
		Workers:      29,
		NodesPerRack: 40,
		Scale:        64,
		NodeMemory:   16 * media.GB,
		MapSlots:     2,
		ReduceHeap:   1 * media.GB,
		SpongeMemory: 1 * media.GB,
	}
}

// CacheBytes returns the page-cache capacity implied by the memory
// carve-up, never less than minCache.
func (c Config) CacheBytes() int64 {
	heaps := int64(c.MapSlots)*mapHeap + ReduceSlots*c.ReduceHeap
	return max(c.NodeMemory-heaps-c.SpongeMemory-osReserve, minCache)
}

// V converts real bytes to virtual bytes.
func (c Config) V(real int) int64 { return int64(real) * c.Scale }

// R converts virtual bytes to real bytes, rounding up so real buffers
// never under-represent their virtual size.
func (c Config) R(virtual int64) int {
	return int((virtual + c.Scale - 1) / c.Scale)
}

// Node is one simulated worker machine.
type Node struct {
	ID   int
	Rack int

	cfg  Config
	Disk *media.Disk
	NIC  *media.NIC
}

// Name returns a diagnostic name such as "node7".
func (n *Node) Name() string { return fmt.Sprintf("node%d", n.ID) }

// Scale returns the cluster's virtual-bytes-per-real-byte factor.
func (n *Node) Scale() int64 { return n.cfg.Scale }

// VirtualOf converts real bytes to virtual bytes.
func (n *Node) VirtualOf(real int) int64 { return n.cfg.V(real) }

// RealOf converts virtual bytes to real bytes (rounding up).
func (n *Node) RealOf(virtual int64) int { return n.cfg.R(virtual) }

// ChargeCopy charges a memory copy of real bytes on this node.
func (n *Node) ChargeCopy(p *simtime.Proc, realBytes int) {
	p.Sleep(media.CopyTime(n.cfg.V(realBytes)))
}

// WriteFile appends real bytes to a disk stream (through the page cache).
func (n *Node) WriteFile(p *simtime.Proc, s media.StreamID, realBytes int) {
	n.Disk.Write(p, s, n.cfg.V(realBytes))
}

// ReadFile reads real bytes from a disk stream.
func (n *Node) ReadFile(p *simtime.Proc, s media.StreamID, realBytes int) {
	n.Disk.Read(p, s, n.cfg.V(realBytes))
}

// Cluster is a set of nodes on one network.
type Cluster struct {
	Sim   *simtime.Sim
	Cfg   Config
	Net   *media.Network
	Nodes []*Node
}

// New builds a cluster per cfg on the given simulation.
func New(sim *simtime.Sim, cfg Config) *Cluster {
	if cfg.Workers <= 0 {
		panic("cluster: no workers")
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.NodesPerRack <= 0 {
		cfg.NodesPerRack = cfg.Workers
	}
	c := &Cluster{Sim: sim, Cfg: cfg, Net: media.NewNetwork()}
	for i := 0; i < cfg.Workers; i++ {
		c.addNode()
	}
	return c
}

// addNode adds one worker node; New builds every node through it. The
// node gets the config's carve-up. A cluster built with more than one
// rack (Workers > NodesPerRack) puts it in the rack its ID implies, its
// NIC on that rack's oversubscribed uplink (§3.1.1's motivation for
// rack-local spilling). A cluster built flat has one switch and every
// node in rack 0.
func (c *Cluster) addNode() {
	i := len(c.Nodes)
	name := fmt.Sprintf("node%d", i)
	n := &Node{
		ID:   i,
		cfg:  c.Cfg,
		Disk: media.NewDisk(c.Sim, name+".disk", c.Cfg.CacheBytes()),
		NIC:  c.Net.NewNIC(name),
	}
	if c.Cfg.Workers > c.Cfg.NodesPerRack {
		n.Rack = i / c.Cfg.NodesPerRack
		c.Net.AssignRack(n.NIC, n.Rack)
	}
	c.Nodes = append(c.Nodes, n)
}

// Transfer moves real bytes between two nodes over the network.
func (c *Cluster) Transfer(p *simtime.Proc, from, to *Node, realBytes int) {
	c.Net.Transfer(p, from.NIC, to.NIC, c.Cfg.V(realBytes))
}

// RPC charges a request/response exchange of the given real payload sizes.
func (c *Cluster) RPC(p *simtime.Proc, from, to *Node, reqReal, respReal int) {
	c.Net.RPC(p, from.NIC, to.NIC, c.Cfg.V(reqReal), c.Cfg.V(respReal))
}

// SameRack reports whether two nodes share a rack.
func (c *Cluster) SameRack(a, b *Node) bool { return a.Rack == b.Rack }
