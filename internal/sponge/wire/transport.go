package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"spongefiles/internal/cluster"
	"spongefiles/internal/obs"
	"spongefiles/internal/simtime"
	"spongefiles/internal/sponge"
)

// Transport adapts the lock-step wire client to the sponge package's
// transport seam, so a simulated workload's allocator chain, tracker
// polling, and failover all run over real TCP against live sponge
// daemons (install with Service.SetTransport). Task liveness is the one
// question a daemon cannot answer — tasks are simulated processes, and
// only the simulated server they registered with knows them — so a GC
// liveness check on a mapped node is answered by the fallback.
//
// Nodes are mapped to server addresses; a node with no address is
// served by the fallback transport (typically the service's simulated
// one — the usual split is "my own node is in-process, everyone else is
// a socket away"). One client per remote node is cached
// across operations; any transport-level failure drops the cached
// client, reports sponge.ErrPeerUnreachable (the retryable class), and
// lets the next attempt re-dial. Application verdicts from the server —
// no free chunk, quota exceeded, chunk lost — map to the corresponding
// sponge errors, which callers never retry.
//
// The simtime.Proc threaded through the Peer methods is not charged:
// time spent here is real wall-clock time on the sockets, not simulated
// time.
// A mapped node is reached through one of two wire tiers, picked at
// dial time: when TransportOptions.SocketDir is set and the node's
// address resolves to this host, the transport dials the server's
// unix-domain socket (same protocol, no TCP stack) and — where the
// build supports it — fetches the server's file descriptors so chunks
// are pread directly; otherwise, or when the socket dial fails
// (missing or stale socket file), it transparently falls back to TCP
// and counts the fallback. Per-op tier usage is exported as
// sponge_transport_tier_total{tier="unix|tcp|pool_fd"}, and the host
// time each exchange takes as the histogram
// sponge_transport_exchange_ns{op="alloc_write|read|free|stat",tier="unix|tcp"}.
type Transport struct {
	fallback sponge.Transport
	opts     TransportOptions

	mu      sync.Mutex
	addrs   map[int]string
	clients map[int]*Client
	closed  bool

	metrics      *obs.Registry
	tierOps      [3]*obs.Counter // indexed by tierUnix/tierTCP/tierPoolFD
	exchange     [exStat + 1][tierTCP + 1]*obs.Histogram
	unixFallback *obs.Counter
	genMiss      *obs.Counter
	revoked      *obs.Counter
}

// tier indexes for Transport.tierOps. tierPoolFD is not a third
// dial-time tier but a refinement of tierUnix: it additionally counts
// the unix-tier reads whose payload came from a pread of a passed file
// — pool segment or spill file — rather than the socket.
const (
	tierUnix = iota
	tierTCP
	tierPoolFD
)

// The op indexes of Transport.exchange, and their label values.
const (
	exAllocWrite = iota
	exRead
	exFree
	exStat
)

var exchangeOps = [...]string{exAllocWrite: "alloc_write", exRead: "read", exFree: "free", exStat: "stat"}

// exchangeBounds are the exchange histogram's bucket edges in
// nanoseconds: powers of two from 8.2 µs to 16.8 ms, which spans a small
// exchange on an idle socket through a 1 MiB chunk on a loaded host.
var exchangeBounds = func() []int64 {
	b := make([]int64, 0, 12)
	for ns := int64(1) << 13; ns <= 1<<24; ns <<= 1 {
		b = append(b, ns)
	}
	return b
}()

// TransportOptions tunes the wire transport's tier selection.
type TransportOptions struct {
	// SocketDir, when non-empty, enables the same-host tier: peers whose
	// address resolves to this host are dialed at
	// SocketPath(SocketDir, addr), falling back to TCP when the socket
	// is missing or stale. It must match the servers'
	// Options.LocalSocketDir.
	SocketDir string
	// Metrics, when non-nil, receives the transport's tier counters;
	// nil means a private registry.
	Metrics *obs.Registry
}

// NewTransportOptions builds a transport routing each node in addrs to
// its server — over the tier opts selects — and every other node through
// fallback (which may be nil to make unmapped nodes unreachable).
func NewTransportOptions(addrs map[int]string, fallback sponge.Transport, opts TransportOptions) *Transport {
	a := make(map[int]string, len(addrs))
	for node, addr := range addrs {
		a[node] = addr
	}
	t := &Transport{
		fallback: fallback,
		opts:     opts,
		addrs:    a,
		clients:  make(map[int]*Client),
		metrics:  opts.Metrics,
	}
	if t.metrics == nil {
		t.metrics = obs.NewRegistry()
	}
	t.tierOps[tierUnix] = t.metrics.Counter("sponge_transport_tier_total", obs.L("tier", "unix"))
	t.tierOps[tierTCP] = t.metrics.Counter("sponge_transport_tier_total", obs.L("tier", "tcp"))
	t.tierOps[tierPoolFD] = t.metrics.Counter("sponge_transport_tier_total", obs.L("tier", "pool_fd"))
	for op, name := range exchangeOps {
		for tier, label := range [...]string{tierUnix: "unix", tierTCP: "tcp"} {
			t.exchange[op][tier] = t.metrics.Histogram("sponge_transport_exchange_ns", exchangeBounds,
				obs.L("op", name), obs.L("tier", label))
		}
	}
	t.unixFallback = t.metrics.Counter("sponge_transport_unix_fallback_total")
	t.genMiss = t.metrics.Counter("sponge_poolfd_gen_miss_total")
	t.revoked = t.metrics.Counter("sponge_transport_peer_revocations_total")
	return t
}

// Metrics returns the registry holding the transport's tier counters
// (the one passed via TransportOptions.Metrics, or its private one).
func (t *Transport) Metrics() *obs.Registry { return t.metrics }

// localAddrSet caches this host's interface addresses for tier
// selection; built once — interface churn mid-run only costs a peer the
// fast tier, never correctness, since a failed socket dial falls back.
var (
	localAddrOnce sync.Once
	localAddrs    map[string]bool
)

// isLocalHost reports whether host names this machine: loopback,
// "localhost", or any address bound to a local interface. Non-IP
// hostnames other than "localhost" are not resolved — DNS in the dial
// path would stall every first contact; such deployments simply use
// TCP.
func isLocalHost(host string) bool {
	if host == "" || host == "localhost" {
		return true
	}
	ip := net.ParseIP(host)
	if ip == nil {
		return false
	}
	if ip.IsLoopback() || ip.IsUnspecified() {
		return true
	}
	localAddrOnce.Do(func() {
		localAddrs = make(map[string]bool)
		addrs, err := net.InterfaceAddrs()
		if err != nil {
			return
		}
		for _, a := range addrs {
			if ipn, ok := a.(*net.IPNet); ok {
				localAddrs[ipn.IP.String()] = true
			}
		}
	})
	return localAddrs[ip.String()]
}

// Close drops every cached client. Subsequent operations fail as
// unreachable.
func (t *Transport) Close() error {
	t.mu.Lock()
	t.closed = true
	clients := t.clients
	t.clients = make(map[int]*Client)
	t.mu.Unlock()
	var first error
	for _, c := range clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// RevokePeer tears down this transport's cached state for a node: the
// node's client closes — and with it every passed descriptor and the
// generation-table mmap, so a same-host reader that raced the node's
// death degrades to TCP instead of reading a dead pool. The address
// mapping stays: the next operation against the node re-dials, which is
// how a peer revoked while still alive is reached again.
func (t *Transport) RevokePeer(node int) {
	t.mu.Lock()
	c := t.clients[node]
	delete(t.clients, node)
	t.mu.Unlock()
	if c != nil {
		c.Close()
		t.revoked.Inc()
	}
}

// Peer returns the handle on a node's sponge server: a wire peer for
// mapped nodes, the fallback transport's peer otherwise.
func (t *Transport) Peer(node int) sponge.Peer {
	// addrs is fixed at construction; no lock.
	if _, mapped := t.addrs[node]; !mapped && t.fallback != nil {
		return t.fallback.Peer(node)
	}
	return wirePeer{t: t, node: node}
}

// dialNode connects to one mapped node, preferring the same-host unix
// tier when configured and the address is local. A unix dial that fails
// (socket missing, stale, or refused) counts one fallback and degrades
// to TCP — the two tiers speak the same protocol, so nothing above
// notices.
func (t *Transport) dialNode(addr string) (*Client, error) {
	if t.opts.SocketDir != "" {
		if host, _, err := net.SplitHostPort(addr); err == nil && isLocalHost(host) {
			if path, perr := SocketPath(t.opts.SocketDir, addr); perr == nil {
				if c, derr := DialLocal(path); derr == nil {
					// Best-effort: a server with nothing to pass (or a
					// portable build) just keeps serving reads over the
					// socket. The counters go in first so an armed client
					// reports from its very first pread.
					c.fdOps = t.tierOps[tierPoolFD]
					c.genMiss = t.genMiss
					_ = c.FetchPoolFDs()
					return c, nil
				}
				t.unixFallback.Inc()
			}
		}
	}
	return Dial(addr)
}

// countOp records one peer operation in the tier counters and returns
// its tier, under which observe records the exchange's duration.
func (t *Transport) countOp(c *Client) int {
	tier := tierTCP
	if c.network == "unix" {
		tier = tierUnix
	}
	t.tierOps[tier].Inc()
	return tier
}

// observe records the host time of one exchange begun at start.
func (t *Transport) observe(op, tier int, start time.Time) {
	t.exchange[op][tier].Observe(int64(time.Since(start)))
}

// client returns the cached client for a node, dialing on
// first use or after a failure dropped the previous one.
func (t *Transport) client(node int) (*Client, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: wire transport closed", sponge.ErrPeerUnreachable)
	}
	c := t.clients[node]
	addr, mapped := t.addrs[node]
	t.mu.Unlock()
	if c != nil {
		return c, nil
	}
	if !mapped {
		return nil, fmt.Errorf("%w: no wire address for node %d", sponge.ErrPeerUnreachable, node)
	}
	c, err := t.dialNode(addr)
	if err != nil {
		return nil, fmt.Errorf("%w: dial node %d: %v", sponge.ErrPeerUnreachable, node, err)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.Close()
		return nil, fmt.Errorf("%w: wire transport closed", sponge.ErrPeerUnreachable)
	}
	if existing := t.clients[node]; existing != nil {
		// A concurrent caller won the dial race; keep theirs.
		t.mu.Unlock()
		c.Close()
		return existing, nil
	}
	t.clients[node] = c
	t.mu.Unlock()
	return c, nil
}

// mapErr translates a wire client error into the sponge error taxonomy.
// Application verdicts pass through as their sponge equivalents; a
// short caller buffer is the caller's bug and passes through unchanged;
// anything else is a transport failure — the cached client is dropped
// (the connection may be poisoned) and the error is reported as the
// retryable sponge.ErrPeerUnreachable.
func (t *Transport) mapErr(node int, c *Client, err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrNoFreeChunk):
		return sponge.ErrNoFreeChunk
	case errors.Is(err, ErrQuotaExceeded):
		return sponge.ErrQuotaExceeded
	case errors.Is(err, ErrChunkLost):
		return sponge.ErrChunkLost
	case errors.Is(err, ErrBadRequest), errors.Is(err, io.ErrShortBuffer):
		return err
	}
	t.mu.Lock()
	if t.clients[node] == c {
		delete(t.clients, node)
	}
	t.mu.Unlock()
	c.Close()
	return fmt.Errorf("%w: node %d: %v", sponge.ErrPeerUnreachable, node, err)
}

// wirePeer carries one node's operations over the cached client.
type wirePeer struct {
	t    *Transport
	node int
}

func (wp wirePeer) AllocWrite(p *simtime.Proc, from *cluster.Node, owner sponge.TaskID, data []byte) (int, error) {
	c, err := wp.t.client(wp.node)
	if err != nil {
		return 0, err
	}
	tier, start := wp.t.countOp(c), time.Now()
	h, err := c.AllocWrite(owner, data)
	wp.t.observe(exAllocWrite, tier, start)
	if err != nil {
		return 0, wp.t.mapErr(wp.node, c, err)
	}
	return h, nil
}

func (wp wirePeer) Read(p *simtime.Proc, to *cluster.Node, handle int, buf []byte) (int, error) {
	c, err := wp.t.client(wp.node)
	if err != nil {
		return 0, err
	}
	tier, start := wp.t.countOp(c), time.Now()
	n, err := c.ReadInto(handle, buf)
	wp.t.observe(exRead, tier, start)
	if err != nil {
		return 0, wp.t.mapErr(wp.node, c, err)
	}
	return n, nil
}

func (wp wirePeer) Free(p *simtime.Proc, from *cluster.Node, handle int) error {
	c, err := wp.t.client(wp.node)
	if err != nil {
		return err
	}
	tier, start := wp.t.countOp(c), time.Now()
	err = c.Free(handle)
	wp.t.observe(exFree, tier, start)
	if err != nil {
		return wp.t.mapErr(wp.node, c, err)
	}
	return nil
}

func (wp wirePeer) FreeSpace(p *simtime.Proc, from *cluster.Node) (int, error) {
	c, err := wp.t.client(wp.node)
	if err != nil {
		return 0, err
	}
	tier, start := wp.t.countOp(c), time.Now()
	free, _, _, err := c.Stat()
	wp.t.observe(exStat, tier, start)
	if err != nil {
		return 0, wp.t.mapErr(wp.node, c, err)
	}
	return free, nil
}

// TaskAlive is answered by the fallback's peer for the node: tasks run
// in the parent, under the simulated server they registered with, and a
// daemon has no record of them. Without a fallback nobody can say, which
// the garbage collector reads as "alive".
func (wp wirePeer) TaskAlive(p *simtime.Proc, from *cluster.Node, pid int64) (bool, error) {
	if wp.t.fallback == nil {
		return false, fmt.Errorf("%w: no liveness registry for node %d", sponge.ErrPeerUnreachable, wp.node)
	}
	return wp.t.fallback.Peer(wp.node).TaskAlive(p, from, pid)
}
