package wire

import (
	"bytes"
	"errors"
	"net"
	"testing"

	"spongefiles/internal/cluster"
	"spongefiles/internal/obs"
	"spongefiles/internal/simtime"
	"spongefiles/internal/sponge"
)

// armPoolFDs fetches the pool descriptors, skipping the test on hosts
// where the pool cannot be file-backed (no memfd and no /dev/shm).
func armPoolFDs(t *testing.T, c *Client) {
	t.Helper()
	if err := c.FetchPoolFDs(); err != nil {
		if errors.Is(err, ErrBadRequest) {
			t.Skipf("pool not file-backed on this host: %v", err)
		}
		t.Fatalf("FetchPoolFDs over unix: %v", err)
	}
	if !c.HasPoolFD() {
		t.Fatal("HasPoolFD = false after successful fetch")
	}
}

// The pool-fd fast path: a unix-tier client fetches the segment and
// generation-table descriptors once and preads pool-resident chunks
// directly — the payload never crosses the socket.
func TestPoolFDPassing(t *testing.T) {
	if !zeroCopyAvailable {
		t.Skip("fd passing needs the linux build")
	}
	dir := shortSockDir(t)
	srv := startServerOptions(t, 2048, 4, Options{LocalSocketDir: dir})
	c, err := DialLocal(srv.LocalSocket())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	owner := sponge.TaskID{Node: 1, PID: 41}
	data := bytes.Repeat([]byte("poolfd"), 300)
	h, err := c.AllocWrite(owner, data)
	if err != nil {
		t.Fatal(err)
	}
	if h&SpillHandleBit != 0 {
		t.Fatalf("alloc got spill handle %#x, want pool", h)
	}
	armPoolFDs(t, c)
	buf := make([]byte, 2048)
	n, err := c.ReadInto(h, buf)
	if err != nil || !bytes.Equal(buf[:n], data) {
		t.Fatalf("pool-fd pread fast path corrupt (n=%d, err=%v)", n, err)
	}
	// The payload never crossed the socket: the server saw a pool_loc
	// request, not a read, for the fast-path fetch.
	samples, err := obs.ParseText(srv.Metrics().Text())
	if err != nil {
		t.Fatal(err)
	}
	if got := samples[reqID(srv.Addr(), "pool_loc")]; got != 1 {
		t.Errorf("pool_loc requests = %d, want 1", got)
	}
	if got := samples[reqID(srv.Addr(), "read")]; got != 0 {
		t.Errorf("read requests = %d, want 0 (payload must not cross the socket)", got)
	}
	if err := c.Free(h); err != nil {
		t.Fatal(err)
	}
}

// A TCP client cannot receive descriptors; the handshake degrades to a
// clean error and the connection stays usable.
func TestPoolFDRefusedOverTCP(t *testing.T) {
	srv := startServerOptions(t, 1024, 2, Options{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.FetchPoolFDs(); err == nil {
		t.Fatal("FetchPoolFDs over TCP succeeded, want error")
	}
	if c.HasPoolFD() {
		t.Fatal("HasPoolFD = true over TCP")
	}
	if _, _, _, err := c.Stat(); err != nil {
		t.Fatalf("client unusable after refused pool-fd fetch: %v", err)
	}
}

// A raw OpPoolFD frame against a NoZeroCopy server must answer
// StatusBadRequest — counting the refusal — rather than poison the
// stream.
func TestPoolFDBadRequestKeepsStream(t *testing.T) {
	dir := shortSockDir(t)
	srv := startServerOptions(t, 1024, 2, Options{LocalSocketDir: dir, NoZeroCopy: true})
	conn, err := net.Dial("unix", srv.LocalSocket())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, []byte{OpPoolFD}); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(conn, handshakeLimit)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 1 || resp[0] != StatusBadRequest {
		t.Fatalf("OpPoolFD on NoZeroCopy server = %v, want [StatusBadRequest]", resp)
	}
	// The same connection still answers the hello.
	if err := writeFrame(conn, []byte{OpHello, ProtocolV2}); err != nil {
		t.Fatal(err)
	}
	if resp, err = readFrame(conn, handshakeLimit); err != nil || len(resp) != helloRespLen || resp[0] != StatusOK {
		t.Fatalf("hello after refused OpPoolFD = (%v, %v)", resp, err)
	}
	if got := tierSample(t, srv.Metrics(), `spongewire_fdpass_fail_total{listen="`+srv.Addr()+`"}`); got != 1 {
		t.Errorf("fdpass failures = %d, want 1", got)
	}
}

// ArmFDPass runs both handshakes on one dedicated connection: a server
// with both tiers arms both; a spill-less server cleanly refuses the
// spill half (counted) and still arms the pool half on the same stream.
func TestArmFDPassBothPathsOneConn(t *testing.T) {
	if !zeroCopyAvailable {
		t.Skip("fd passing needs the linux build")
	}
	dir := shortSockDir(t)

	t.Run("spill-and-pool", func(t *testing.T) {
		srv := startServerOptions(t, 1024, 2, Options{LocalSocketDir: dir, SpillDir: t.TempDir()})
		c, err := DialLocal(srv.LocalSocket())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.ArmFDPass(); err != nil {
			t.Fatalf("ArmFDPass: %v", err)
		}
		if !c.HasSpillFD() {
			t.Error("spill fd not armed")
		}
		if !c.HasPoolFD() {
			t.Skip("pool not file-backed on this host")
		}
		if got := tierSample(t, srv.Metrics(), `spongewire_fdpass_fail_total{listen="`+srv.Addr()+`"}`); got != 0 {
			t.Errorf("fdpass failures = %d, want 0", got)
		}
	})

	t.Run("pool-only", func(t *testing.T) {
		srv := startServerOptions(t, 1024, 2, Options{LocalSocketDir: dir}) // no SpillDir
		c, err := DialLocal(srv.LocalSocket())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.ArmFDPass(); err != nil {
			t.Fatalf("ArmFDPass with refused spill half: %v", err)
		}
		if c.HasSpillFD() {
			t.Error("spill fd armed on a spill-less server")
		}
		if !c.HasPoolFD() {
			t.Skip("pool not file-backed on this host")
		}
		// The spill refusal rode the same connection as the successful
		// pool handshake, and was counted.
		if got := tierSample(t, srv.Metrics(), `spongewire_fdpass_fail_total{listen="`+srv.Addr()+`"}`); got != 1 {
			t.Errorf("fdpass failures = %d, want 1 (refused spill half)", got)
		}
	})
}

// A chunk freed and reallocated between the OpPoolLoc exchange and the
// segment pread is caught by the generation check and transparently
// retried over the socket: the caller sees the authoritative bytes.
func TestPoolFDGenMissRetries(t *testing.T) {
	if !zeroCopyAvailable {
		t.Skip("fd passing needs the linux build")
	}
	dir := shortSockDir(t)
	srv := startServerOptions(t, 2048, 1, Options{LocalSocketDir: dir})
	c, err := DialLocal(srv.LocalSocket())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mut, err := DialLocal(srv.LocalSocket()) // the racing mutator
	if err != nil {
		t.Fatal(err)
	}
	defer mut.Close()

	owner := sponge.TaskID{Node: 1, PID: 43}
	oldData := bytes.Repeat([]byte{0x11}, 2048)
	newData := bytes.Repeat([]byte{0xEE}, 2048)
	h, err := c.AllocWrite(owner, oldData)
	if err != nil {
		t.Fatal(err)
	}
	armPoolFDs(t, c)
	reg := obs.NewRegistry()
	c.genMiss = reg.Counter("x_gen_miss_total")

	fired := false
	poolPreadTestHook = func() {
		if fired {
			return
		}
		fired = true
		// Free and reallocate the chunk in the window the generation
		// check guards; the single-chunk pool recycles the same handle.
		if err := mut.Free(h); err != nil {
			t.Errorf("mid-read free: %v", err)
		}
		h2, err := mut.AllocWrite(sponge.TaskID{Node: 2, PID: 44}, newData)
		if err != nil || h2 != h {
			t.Errorf("mid-read realloc = (%d, %v), want handle %d", h2, err, h)
		}
	}
	defer func() { poolPreadTestHook = nil }()

	buf := make([]byte, 2048)
	n, err := c.ReadInto(h, buf)
	if err != nil {
		t.Fatalf("ReadInto across the recycle: %v", err)
	}
	if !fired {
		t.Fatal("test hook never ran: the pread fast path was not taken")
	}
	if !bytes.Equal(buf[:n], newData) {
		t.Fatalf("read returned stale or torn bytes (n=%d, first=%#x)", n, buf[0])
	}
	if got := tierSample(t, reg, "x_gen_miss_total"); got != 1 {
		t.Errorf("generation misses = %d, want 1", got)
	}
	// The retry went over the socket: one pool_loc and one read.
	samples, err := obs.ParseText(srv.Metrics().Text())
	if err != nil {
		t.Fatal(err)
	}
	if got := samples[reqID(srv.Addr(), "pool_loc")]; got != 1 {
		t.Errorf("pool_loc requests = %d, want 1", got)
	}
	if got := samples[reqID(srv.Addr(), "read")]; got != 1 {
		t.Errorf("read requests = %d, want 1 (the gen-miss retry)", got)
	}
}

// Closing the pool under an armed fd-holding reader must not crash
// either side: the unmap is safe (the client's own mapping keeps the
// kernel memory alive) and subsequent lookups fail cleanly.
func TestPoolFDReadAfterPoolClose(t *testing.T) {
	if !zeroCopyAvailable {
		t.Skip("fd passing needs the linux build")
	}
	dir := shortSockDir(t)
	srv := startServerOptions(t, 2048, 2, Options{LocalSocketDir: dir})
	c, err := DialLocal(srv.LocalSocket())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := bytes.Repeat([]byte{0x77}, 2048)
	h, err := c.AllocWrite(sponge.TaskID{Node: 1, PID: 45}, data)
	if err != nil {
		t.Fatal(err)
	}
	armPoolFDs(t, c)
	buf := make([]byte, 2048)
	if n, err := c.ReadInto(h, buf); err != nil || !bytes.Equal(buf[:n], data) {
		t.Fatalf("pre-close read corrupt (n=%d, err=%v)", n, err)
	}
	// Daemon-shutdown simulation: unmap the pool while the client still
	// holds the passed descriptors.
	if err := srv.pool.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadInto(h, buf); !errors.Is(err, ErrChunkLost) {
		t.Fatalf("read after pool close = %v, want ErrChunkLost", err)
	}
	// The connection survived the failed lookup.
	if _, _, _, err := c.Stat(); err != nil {
		t.Fatalf("client unusable after pool close: %v", err)
	}
}

// The seeded fault stream is a function of (seed, exchange order) only:
// arming the pool-fd fast path must not perturb it — same drops, same
// successes — while the armed run serves its reads via pread.
func TestFaultStreamUnchangedByPoolFD(t *testing.T) {
	dir := shortSockDir(t)
	run := func(noFD bool) ([]bool, int64) {
		srv := startServerOptions(t, 1024, 4, Options{LocalSocketDir: dir})
		defer srv.Close()
		tr := NewTransportOptions(map[int]string{1: srv.Addr()}, nil,
			TransportOptions{SocketDir: dir, NoFDPass: noFD})
		defer tr.Close()
		ft := sponge.NewFaultTransport(tr, sponge.FaultConfig{
			Seed: 42, DropRate: 0.4, Timeout: simtime.Millisecond,
		})
		cfg := cluster.PaperConfig()
		cfg.Workers = 2
		sim := simtime.New()
		cl := cluster.New(sim, cfg)
		var pattern []bool
		sim.Spawn("drive", func(p *simtime.Proc) {
			// Seed the chunk through the unfaulted transport so both runs
			// start from the identical RNG position.
			h, err := tr.Peer(1).AllocWrite(p, cl.Nodes[0],
				sponge.TaskID{Node: 1, PID: 7}, bytes.Repeat([]byte{0x5A}, 1024))
			if err != nil {
				t.Errorf("seed alloc: %v", err)
				return
			}
			peer := ft.Peer(1)
			buf := make([]byte, 1024)
			for i := 0; i < 64; i++ {
				_, err := peer.Read(p, cl.Nodes[0], h, buf)
				pattern = append(pattern, err == nil)
			}
		})
		sim.MustRun()
		return pattern, tierSample(t, tr.Metrics(), `sponge_transport_tier_total{tier="pool_fd"}`)
	}
	armed, armedPreads := run(false)
	plain, plainPreads := run(true)
	if len(armed) != len(plain) {
		t.Fatalf("pattern lengths differ: %d vs %d", len(armed), len(plain))
	}
	drops := 0
	for i := range armed {
		if armed[i] != plain[i] {
			t.Fatalf("fault stream diverged at exchange %d: armed=%v plain=%v",
				i, armed[i], plain[i])
		}
		if !armed[i] {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("drop rate 0.4 over 64 exchanges injected nothing; seeded stream broken")
	}
	if plainPreads != 0 {
		t.Errorf("NoFDPass run counted %d pool-fd preads, want 0", plainPreads)
	}
	if zeroCopyAvailable && armedPreads == 0 {
		t.Error("armed run counted no pool-fd preads; fast path not exercised")
	}
}
