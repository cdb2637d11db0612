package wire

import (
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"spongefiles/internal/cluster"
	"spongefiles/internal/obs"
	"spongefiles/internal/simtime"
	"spongefiles/internal/sponge"
)

// shortSockDir returns a directory for unix sockets kept short enough
// for the ~108-byte sun_path limit (t.TempDir can exceed it on deeply
// nested CI workspaces).
func shortSockDir(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "sp")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

func startServerOptions(t *testing.T, chunkSize, chunks int, opts Options) *Server {
	t.Helper()
	srv, err := Serve(sponge.NewPool(chunkSize, chunks), "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestSocketPath(t *testing.T) {
	p, err := SocketPath("/run/sponge", "10.1.2.3:7070")
	if err != nil {
		t.Fatal(err)
	}
	if p != filepath.Join("/run/sponge", "sponge-7070.sock") {
		t.Fatalf("SocketPath = %q", p)
	}
	if _, err := SocketPath("/run/sponge", "no-port-here"); err == nil {
		t.Fatal("SocketPath accepted an address without a port")
	}
}

// The unix tier speaks the identical protocol: hello negotiation,
// v2 exchanges, chunk round trips — just over the socket file.
func TestUnixTierRoundTrip(t *testing.T) {
	dir := shortSockDir(t)
	srv := startServerOptions(t, 4096, 4, Options{LocalSocketDir: dir})
	if srv.LocalSocket() == "" {
		t.Fatal("server reports no local socket")
	}
	c, err := DialLocal(srv.LocalSocket())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Network() != "unix" || c.ChunkSize() != 4096 {
		t.Fatalf("unix tier dialed %q with chunk size %d, want unix and 4096", c.Network(), c.ChunkSize())
	}
	data := bytes.Repeat([]byte("local"), 300)
	h, err := c.AllocWrite(sponge.TaskID{Node: 1, PID: 9}, data)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := c.ReadInto(h, buf)
	if err != nil || !bytes.Equal(buf[:n], data) {
		t.Fatalf("unix round trip corrupt (n=%d, err=%v)", n, err)
	}
	if err := c.Free(h); err != nil {
		t.Fatal(err)
	}
}

// Closing the server must remove its socket file, so restarts never
// trip over their own leftovers.
func TestCloseRemovesSocketFile(t *testing.T) {
	dir := shortSockDir(t)
	srv, err := Serve(sponge.NewPool(1024, 2), "127.0.0.1:0", Options{LocalSocketDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	path := srv.LocalSocket()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("socket file missing while serving: %v", err)
	}
	srv.Close()
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("socket file still present after Close: %v", err)
	}
}

// A stale socket file from a crashed daemon must not stop a new daemon
// on the same port from listening.
func TestStartupReplacesStaleSocket(t *testing.T) {
	dir := shortSockDir(t)
	srv := startServerOptions(t, 1024, 2, Options{LocalSocketDir: dir})
	stale := srv.LocalSocket()
	addr := srv.Addr()
	srv.Close()
	// Recreate the stale file: a socket nobody listens on.
	ln, err := net.Listen("unix", stale)
	if err != nil {
		t.Fatal(err)
	}
	ln.(*net.UnixListener).SetUnlinkOnClose(false)
	ln.Close()
	if _, err := os.Stat(stale); err != nil {
		t.Fatalf("failed to fabricate stale socket: %v", err)
	}
	_, port, _ := net.SplitHostPort(addr)
	srv2, err := Serve(sponge.NewPool(1024, 2), "127.0.0.1:"+port, Options{LocalSocketDir: dir})
	if err != nil {
		t.Fatalf("restart over stale socket: %v", err)
	}
	defer srv2.Close()
	c, err := DialLocal(srv2.LocalSocket())
	if err != nil {
		t.Fatalf("dial restarted daemon: %v", err)
	}
	c.Close()
}

// tierSample reads one counter value out of a registry's exposition.
func tierSample(t *testing.T, reg *obs.Registry, id string) int64 {
	t.Helper()
	samples, err := obs.ParseText(reg.Text())
	if err != nil {
		t.Fatal(err)
	}
	return samples[id]
}

// The transport auto-selects the unix tier for same-host peers with a
// live socket, and transparently falls back to TCP — counting the
// fallback — when the socket is missing or stale.
func TestTransportTierSelectionAndFallback(t *testing.T) {
	dir := shortSockDir(t)
	withSock := startServerOptions(t, 2048, 4, Options{LocalSocketDir: dir})
	tcpOnly := startServerOptions(t, 2048, 4, Options{}) // no socket in dir

	// Fabricate a stale socket for a third server: the path exists but
	// nothing listens. The dial fails and the transport degrades to TCP.
	staleSrv := startServerOptions(t, 2048, 4, Options{})
	stalePath, err := SocketPath(dir, staleSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("unix", stalePath)
	if err != nil {
		t.Fatal(err)
	}
	ln.(*net.UnixListener).SetUnlinkOnClose(false)
	ln.Close()

	tr := NewTransportOptions(map[int]string{
		1: withSock.Addr(),
		2: tcpOnly.Addr(),
		3: staleSrv.Addr(),
	}, nil, TransportOptions{SocketDir: dir})
	defer tr.Close()

	for node := 1; node <= 3; node++ {
		if _, err := tr.Peer(node).FreeSpace(nil, nil); err != nil {
			t.Fatalf("FreeSpace via node %d: %v", node, err)
		}
	}
	reg := tr.Metrics()
	if got := tierSample(t, reg, `sponge_transport_tier_total{tier="unix"}`); got != 1 {
		t.Errorf("unix tier ops = %d, want 1", got)
	}
	if got := tierSample(t, reg, `sponge_transport_tier_total{tier="tcp"}`); got != 2 {
		t.Errorf("tcp tier ops = %d, want 2", got)
	}
	if got := tierSample(t, reg, `sponge_transport_unix_fallback_total`); got != 2 {
		t.Errorf("unix fallbacks = %d, want 2 (missing socket + stale socket)", got)
	}
}

// Every peer exchange the transport counts in a tier counter is timed
// in the exchange histogram of its op and tier, so per tier the
// histograms' counts add up to the counter's, op by op to the
// calls made; recording costs the exchange no allocation.
func TestTransportExchangeHistograms(t *testing.T) {
	dir := shortSockDir(t)
	const chunk = 4096
	tr := NewTransportOptions(map[int]string{
		1: startServerOptions(t, chunk, 4, Options{LocalSocketDir: dir}).Addr(),
		2: startServerOptions(t, chunk, 4, Options{}).Addr(), // no socket: TCP
	}, nil, TransportOptions{SocketDir: dir})
	defer tr.Close()
	reg := tr.Metrics()
	count := func(op, tier string) int64 {
		return tierSample(t, reg, `sponge_transport_exchange_ns_count{op="`+op+`",tier="`+tier+`"}`)
	}
	owner := sponge.TaskID{Node: 1, PID: 7}
	data := bytes.Repeat([]byte{0x3C}, chunk)
	buf := make([]byte, chunk)
	roundTrip := func(peer sponge.Peer) {
		h, err := peer.AllocWrite(nil, nil, owner, data)
		if err != nil {
			t.Fatalf("AllocWrite: %v", err)
		}
		if _, err := peer.Read(nil, nil, h, buf); err != nil {
			t.Fatalf("Read: %v", err)
		}
		if err := peer.Free(nil, nil, h); err != nil {
			t.Fatalf("Free: %v", err)
		}
		if _, err := peer.FreeSpace(nil, nil); err != nil {
			t.Fatalf("FreeSpace: %v", err)
		}
	}
	peers := []sponge.Peer{tr.Peer(1), tr.Peer(2)}
	const rounds = 3
	for i := 0; i < rounds; i++ {
		for _, peer := range peers {
			roundTrip(peer)
		}
	}
	for _, tier := range []string{"unix", "tcp"} {
		var sum int64
		for _, op := range []string{"alloc_write", "read", "free", "stat"} {
			n := count(op, tier)
			if n != rounds {
				t.Errorf("exchange_ns{op=%q,tier=%q} counted %d, want %d", op, tier, n, rounds)
			}
			sum += n
		}
		if n := tierSample(t, reg, `sponge_transport_tier_total{tier="`+tier+`"}`); n != sum {
			t.Errorf("tier %s: tier_total counted %d, exchange histograms %d", tier, n, sum)
		}
	}
	if raceEnabled {
		return
	}
	for _, peer := range peers {
		roundTrip(peer) // warm the pools behind the timed exchanges
		if avg := testing.AllocsPerRun(50, func() { roundTrip(peer) }); avg != 0 {
			t.Errorf("a timed round trip allocates %.2f objects, want 0", avg)
		}
	}
}

// fillPool exhausts the server's memory pool so subsequent AllocWrites
// overflow into the spill tier, returning the pool handles.
func fillPool(t *testing.T, c *Client, owner sponge.TaskID, chunk, chunks int) []int {
	t.Helper()
	handles := make([]int, 0, chunks)
	for i := 0; i < chunks; i++ {
		h, err := c.AllocWrite(owner, bytes.Repeat([]byte{byte(i + 1)}, chunk))
		if err != nil {
			t.Fatal(err)
		}
		if h&SpillHandleBit != 0 {
			t.Fatalf("pool alloc %d came back as spill handle %#x", i, h)
		}
		handles = append(handles, h)
	}
	return handles
}

// servePortable fronts srv with a TCP listener whose accepted
// connections reach the daemon wrapped so that SyscallConn is hidden:
// the frame writer finds no raw socket to sendfile into and serves file
// payloads through the portable pread+write loop — the only path off
// linux — with no knob involved. It returns the address to dial.
func servePortable(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				srv.serve(struct{ net.Conn }{conn}, new(connScratch))
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, conn := range conns {
			conn.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return ln.Addr().String()
}

// A full pool overflows into the spill file; spilled chunks read back
// intact (the sendfile serve path on linux, the pooled buffered path
// elsewhere or behind a connection that hides its socket) and their
// frees reclaim the file.
func TestSpillOverflowRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name     string
		portable bool
	}{
		{"zerocopy", false},
		{"portable", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := startServerOptions(t, 2048, 2, Options{SpillDir: t.TempDir()})
			addr := srv.Addr()
			if tc.portable {
				addr = servePortable(t, srv)
			}
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			owner := sponge.TaskID{Node: 1, PID: 11}
			poolHandles := fillPool(t, c, owner, 2048, 2)

			var spilled []int
			var payloads [][]byte
			for i := 0; i < 3; i++ {
				data := bytes.Repeat([]byte{byte(0x40 + i)}, 2048-i*17)
				h, err := c.AllocWrite(owner, data)
				if err != nil {
					t.Fatalf("overflow alloc %d: %v", i, err)
				}
				if h&SpillHandleBit == 0 {
					t.Fatalf("overflow alloc %d got pool handle %#x, want spill", i, h)
				}
				spilled = append(spilled, h)
				payloads = append(payloads, data)
			}
			// Both read forms: exact-size allocation and zero-copy into.
			buf := make([]byte, 2048)
			for i, h := range spilled {
				got, err := readChunk(c, h)
				if err != nil || !bytes.Equal(got, payloads[i]) {
					t.Fatalf("spill read %d corrupt (err=%v, %d bytes)", i, err, len(got))
				}
				n, err := c.ReadInto(h, buf)
				if err != nil || !bytes.Equal(buf[:n], payloads[i]) {
					t.Fatalf("spill ReadInto %d corrupt (err=%v)", i, err)
				}
			}
			for _, h := range append(poolHandles, spilled...) {
				if err := c.Free(h); err != nil {
					t.Fatal(err)
				}
			}
			// All records freed: the file truncates back to zero.
			if live, bytes := srv.spill.stats(); live != 0 || bytes != 0 {
				t.Fatalf("spill file not reclaimed: %d live, %d bytes", live, bytes)
			}
			// Reading a freed spill handle fails cleanly.
			if _, err := readChunk(c, spilled[0]); !errors.Is(err, ErrNoFreeChunk) {
				t.Fatalf("read of freed spill chunk = %v, want ErrNoFreeChunk", err)
			}

			samples, err := obs.ParseText(srv.Metrics().Text())
			if err != nil {
				t.Fatal(err)
			}
			listen := `{listen="` + srv.Addr() + `"}`
			zc := samples["spongewire_serve_zero_copy_bytes_total"+listen]
			fb := samples["spongewire_serve_zero_copy_fallback_total"+listen]
			if tc.portable || !zeroCopyAvailable {
				if zc != 0 || fb == 0 {
					t.Errorf("portable path: zero_copy_bytes=%d fallback=%d, want 0 and >0", zc, fb)
				}
			} else if zc == 0 {
				t.Errorf("zero-copy path served no bytes (fallback=%d)", fb)
			}
			if samples["spongewire_spill_allocs_total"+listen] != 3 {
				t.Errorf("spill allocs = %d, want 3", samples["spongewire_spill_allocs_total"+listen])
			}
		})
	}
}

// SpillChunks caps the disk tier: overflow past the cap surfaces
// ErrNoFreeChunk just like a full pool with no spill file.
func TestSpillChunkCap(t *testing.T) {
	srv := startServerOptions(t, 1024, 1, Options{SpillDir: t.TempDir(), SpillChunks: 1})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	owner := sponge.TaskID{Node: 1, PID: 5}
	fillPool(t, c, owner, 1024, 1)
	if _, err := c.AllocWrite(owner, []byte("spill-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AllocWrite(owner, []byte("spill-2")); !errors.Is(err, ErrNoFreeChunk) {
		t.Fatalf("alloc past spill cap = %v, want ErrNoFreeChunk", err)
	}
}

// The fd-passing fast path: a unix-tier client fetches the server's
// files once and preads spilled chunks directly from the spill file.
func TestSpillFDPassing(t *testing.T) {
	if !zeroCopyAvailable {
		t.Skip("fd passing needs the linux build")
	}
	dir := shortSockDir(t)
	srv := startServerOptions(t, 2048, 1, Options{LocalSocketDir: dir, SpillDir: t.TempDir()})
	c, err := DialLocal(srv.LocalSocket())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	owner := sponge.TaskID{Node: 1, PID: 21}
	fillPool(t, c, owner, 2048, 1)
	data := bytes.Repeat([]byte("fdpass"), 300)
	h, err := c.AllocWrite(owner, data)
	if err != nil {
		t.Fatal(err)
	}
	if h&SpillHandleBit == 0 {
		t.Fatalf("alloc got pool handle %#x, want spill", h)
	}
	if err := c.FetchPoolFDs(); err != nil {
		t.Fatalf("FetchPoolFDs over unix: %v", err)
	}
	if c.fds == nil {
		t.Fatal("no fd state after a successful fetch")
	}
	buf := make([]byte, 2048)
	n, err := c.ReadInto(h, buf)
	if err != nil || !bytes.Equal(buf[:n], data) {
		t.Fatalf("pread fast path corrupt (n=%d, err=%v)", n, err)
	}
	// The payload never crossed the socket: the server saw a spill_loc
	// request, not a read, for the fast-path fetch.
	samples, err := obs.ParseText(srv.Metrics().Text())
	if err != nil {
		t.Fatal(err)
	}
	if got := samples[reqID(srv.Addr(), "spill_loc")]; got != 1 {
		t.Errorf("spill_loc requests = %d, want 1", got)
	}
	if got := samples[reqID(srv.Addr(), "read")]; got != 0 {
		t.Errorf("read requests = %d, want 0 (payload must not cross the socket)", got)
	}
	if err := c.Free(h); err != nil {
		t.Fatal(err)
	}
}

// A TCP client cannot receive a descriptor; the handshake degrades to a
// clean error and the connection-independent state stays usable.
func TestSpillFDRefusedOverTCP(t *testing.T) {
	srv := startServerOptions(t, 1024, 2, Options{SpillDir: t.TempDir()})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.FetchPoolFDs(); err == nil {
		t.Fatal("FetchPoolFDs over TCP succeeded, want error")
	}
	if c.fds != nil {
		t.Fatal("fd state installed over TCP")
	}
	if _, _, _, err := c.Stat(); err != nil {
		t.Fatalf("client unusable after refused fd fetch: %v", err)
	}
}

// The fault stream is a function of (seed, exchange order) only: the
// same seeded FaultTransport wrapped around the unix tier and the TCP
// tier injects bit-identical faults.
func TestFaultStreamIdenticalAcrossTiers(t *testing.T) {
	dir := shortSockDir(t)
	run := func(socketDir string, wantTier string) []bool {
		srv := startServerOptions(t, 1024, 4, Options{LocalSocketDir: dir})
		tr := NewTransportOptions(map[int]string{1: srv.Addr()}, nil,
			TransportOptions{SocketDir: socketDir})
		defer tr.Close()
		ft := sponge.NewFaultTransport(tr, sponge.FaultConfig{
			Seed: 42, DropRate: 0.4,
		})
		cfg := cluster.PaperConfig()
		cfg.Workers = 2
		sim := simtime.New()
		cl := cluster.New(sim, cfg)
		var pattern []bool
		sim.Spawn("drive", func(p *simtime.Proc) {
			peer := ft.Peer(1)
			for i := 0; i < 64; i++ {
				_, err := peer.FreeSpace(p, cl.Nodes[0])
				pattern = append(pattern, err == nil)
			}
		})
		sim.MustRun()
		if got := tierSample(t, tr.Metrics(), `sponge_transport_tier_total{tier="`+wantTier+`"}`); got == 0 {
			t.Fatalf("no operations on the %s tier", wantTier)
		}
		return pattern
	}
	overUnix := run(dir, "unix")
	overTCP := run("", "tcp")
	if len(overUnix) != len(overTCP) {
		t.Fatalf("pattern lengths differ: %d vs %d", len(overUnix), len(overTCP))
	}
	drops := 0
	for i := range overUnix {
		if overUnix[i] != overTCP[i] {
			t.Fatalf("fault stream diverged at exchange %d: unix=%v tcp=%v",
				i, overUnix[i], overTCP[i])
		}
		if !overUnix[i] {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("drop rate 0.4 over 64 exchanges injected nothing; seeded stream broken")
	}
}

// Steady-state chunk reads over the wire — pool chunks over both tiers,
// spilled chunks via sendfile and via the portable pread+write loop, and
// either kind pread from a passed descriptor — must not allocate once
// warm, client or server side (the server runs in-process, so
// AllocsPerRun sees its serve loop too).
func TestWireReadSteadyStateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime allocations around socket I/O would drown the guard")
	}
	dir := shortSockDir(t)
	const chunk = 64 << 10
	tcp := func(_ *testing.T, s *Server) (*Client, error) { return Dial(s.Addr()) }
	unix := func(_ *testing.T, s *Server) (*Client, error) { return DialLocal(s.LocalSocket()) }
	portable := func(t *testing.T, s *Server) (*Client, error) { return Dial(servePortable(t, s)) }
	for _, tc := range []struct {
		name string
		opts Options
		dial func(*testing.T, *Server) (*Client, error)
		arm  bool // run the descriptor handshake
	}{
		{"tcp", Options{}, tcp, false},
		{"unix", Options{LocalSocketDir: dir}, unix, false},
		{"spill-serve", Options{SpillDir: os.TempDir()}, tcp, false},
		{"spill-portable", Options{SpillDir: os.TempDir()}, portable, false},
		{"spill-fdpass", Options{LocalSocketDir: dir, SpillDir: os.TempDir()}, unix, true},
		{"pool-fdpass", Options{LocalSocketDir: dir}, unix, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spill := tc.opts.SpillDir != ""
			poolChunks := 4
			if spill {
				poolChunks = 1
			}
			srv := startServerOptions(t, chunk, poolChunks, tc.opts)
			c, err := tc.dial(t, srv)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			owner := sponge.TaskID{Node: 1, PID: 31}
			data := bytes.Repeat([]byte{0xA5}, chunk)
			var h int
			if spill {
				fillPool(t, c, owner, chunk, poolChunks)
				if h, err = c.AllocWrite(owner, data); err != nil {
					t.Fatal(err)
				}
				if h&SpillHandleBit == 0 {
					t.Fatal("expected a spill handle")
				}
			} else if h, err = c.AllocWrite(owner, data); err != nil {
				t.Fatal(err)
			}
			if tc.arm {
				c.FetchPoolFDs() // best-effort: unarmed it still must not allocate
			}
			buf := make([]byte, chunk)
			readChunk := func() {
				if n, err := c.ReadInto(h, buf); err != nil || n != chunk {
					t.Fatalf("ReadInto = (%d, %v)", n, err)
				}
			}
			for i := 0; i < 50; i++ {
				readChunk() // warm every pool: buffers, calls, headers
			}
			if avg := testing.AllocsPerRun(100, readChunk); avg != 0 {
				t.Errorf("steady-state %s ReadInto allocates %.2f objects per chunk, want 0",
					tc.name, avg)
			}
			if !spill && !tc.arm {
				// Socket → slab on the way in, slab → socket on the way out:
				// nothing chunk-sized was ever staged, so no connection has
				// made its staging buffer.
				srv.mu.Lock()
				for _, sc := range srv.conns {
					if sc.stage != nil {
						t.Errorf("%s: the daemon staged a pool chunk in a connection's buffer", tc.name)
					}
				}
				srv.mu.Unlock()
			}
		})
	}
	// AllocWrite and Stat, client and server together on both socket
	// tiers: the payload goes from the caller's buffer to the slab, the
	// short replies come from the connection's reply scratch and land in
	// the client's reply value.
	for _, tier := range []string{"tcp", "unix"} {
		t.Run("alloc-write-stat-"+tier, func(t *testing.T) {
			srv := startServerOptions(t, chunk, 4, Options{LocalSocketDir: dir})
			c, err := Dial(srv.Addr())
			if tier == "unix" {
				c, err = DialLocal(srv.LocalSocket())
			}
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			owner := sponge.TaskID{Node: 1, PID: 31}
			data := bytes.Repeat([]byte{0xA5}, chunk)
			allocWrite := func() {
				h, err := c.AllocWrite(owner, data)
				if err != nil {
					t.Fatalf("AllocWrite: %v", err)
				}
				srv.pool.FreeChunk(h)
			}
			stat := func() {
				if _, _, size, err := c.Stat(); err != nil || size != chunk {
					t.Fatalf("Stat = (chunk size %d, %v)", size, err)
				}
			}
			for i := 0; i < 50; i++ {
				allocWrite()
				stat()
			}
			if avg := testing.AllocsPerRun(100, allocWrite); avg != 0 {
				t.Errorf("steady-state %s AllocWrite allocates %.2f objects per chunk, want 0", tier, avg)
			}
			if avg := testing.AllocsPerRun(100, stat); avg != 0 {
				t.Errorf("steady-state %s Stat allocates %.2f objects per call, want 0", tier, avg)
			}
		})
	}
}

// The OpMetrics exposition must include the tier-labeled connection
// counters so spongectl stats can render the tier split per node.
func TestMetricsExposeTierSeries(t *testing.T) {
	dir := shortSockDir(t)
	srv := startServerOptions(t, 1024, 2, Options{LocalSocketDir: dir, SpillDir: t.TempDir()})
	c, err := DialLocal(srv.LocalSocket())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`spongewire_connections_total{listen="` + srv.Addr() + `",tier="unix"} 1`,
		"spongewire_serve_zero_copy_bytes_total",
		"spongewire_spill_chunks",
		"spongewire_spill_bytes",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
}
