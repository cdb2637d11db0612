package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

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
	if c.fds == nil {
		t.Fatal("no fd state after a successful fetch")
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
	if c.fds != nil {
		t.Fatal("fd state installed over TCP")
	}
	if _, _, _, err := c.Stat(); err != nil {
		t.Fatalf("client unusable after refused pool-fd fetch: %v", err)
	}
}

// A raw OpPoolFD frame against a server with nothing to pass — a
// zero-chunk pool has no generation table to back with a file, and
// there is no spill tier — is answered StatusBadRequest under its
// request's ID, counted as a descriptor-passing failure, and the
// connection closed: a descriptor connection carries one exchange.
func TestPoolFDRefusalCountedThenEOF(t *testing.T) {
	dir := shortSockDir(t)
	srv := startServerOptions(t, 1024, 0, Options{LocalSocketDir: dir})
	conn, err := net.Dial("unix", srv.LocalSocket())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeTestFrame(conn, 3, []byte{OpPoolFD}); err != nil {
		t.Fatal(err)
	}
	id, resp, err := readTestFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 || len(resp) != 1 || resp[0] != StatusBadRequest {
		t.Fatalf("OpPoolFD on a server with nothing to pass = (id %d, %v), want (id 3, [StatusBadRequest])", id, resp)
	}
	if got := tierSample(t, srv.Metrics(), `spongewire_fdpass_fail_total{listen="`+srv.Addr()+`"}`); got != 1 {
		t.Errorf("fdpass failures = %d, want 1", got)
	}
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after the refusal = (%d, %v), want EOF", n, err)
	}
}

// One handshake arms whatever the server has, and a healthy dial counts
// no failure: pool and spill file together, the pool alone, and — behind
// a pool that cannot be passed — the spill file alone. The transport
// runs the handshake on its unix dial; every read is then a loc
// exchange under the chunk's own label plus a pread, never an OpRead.
func TestFDHandshakeArmsWhateverTheServerHas(t *testing.T) {
	if !zeroCopyAvailable {
		t.Skip("fd passing needs the linux build")
	}
	for _, tc := range []struct {
		name       string
		poolChunks int // 0: the pool answers ErrPoolNotMappable
		spill      bool
		writes     int
		poolLocs   int64
		spillLocs  int64
	}{
		{"spill-and-pool", 1, true, 3, 1, 2},
		{"pool-only", 2, false, 2, 2, 0},
		{"spill-only", 0, true, 2, 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := shortSockDir(t)
			opts := Options{LocalSocketDir: dir}
			if tc.spill {
				opts.SpillDir = t.TempDir()
			}
			srv := startServerOptions(t, 1024, tc.poolChunks, opts)
			if _, _, err := srv.pool.SegmentFiles(); err == nil {
				srv.pool.ReleaseSegmentFiles()
			} else if tc.poolChunks > 0 {
				t.Skipf("pool not file-backed on this host: %v", err)
			}
			tr := NewTransportOptions(map[int]string{1: srv.Addr()}, nil, TransportOptions{SocketDir: dir})
			defer tr.Close()
			peer := tr.Peer(1)
			buf := make([]byte, 1024)
			for i := 0; i < tc.writes; i++ {
				data := bytes.Repeat([]byte{byte(0x30 + i)}, 1024-i)
				h, err := peer.AllocWrite(nil, nil, sponge.TaskID{Node: 1, PID: 47}, data)
				if err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
				if n, err := peer.Read(nil, nil, h, buf); err != nil || !bytes.Equal(buf[:n], data) {
					t.Fatalf("read %d (handle %#x) corrupt (n=%d, err=%v)", i, h, n, err)
				}
			}
			samples, err := obs.ParseText(srv.Metrics().Text())
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []struct {
				id string
				n  int64
			}{
				{`spongewire_fdpass_fail_total{listen="` + srv.Addr() + `"}`, 0},
				{reqID(srv.Addr(), "pool_fd"), 1},
				{reqID(srv.Addr(), "pool_loc"), tc.poolLocs},
				{reqID(srv.Addr(), "spill_loc"), tc.spillLocs},
				{reqID(srv.Addr(), "read"), 0},
			} {
				if got := samples[want.id]; got != want.n {
					t.Errorf("%s = %d, want %d", want.id, got, want.n)
				}
			}
			if got := tierSample(t, tr.Metrics(), `sponge_transport_tier_total{tier="pool_fd"}`); got != int64(tc.writes) {
				t.Errorf("descriptor preads = %d, want %d (every read)", got, tc.writes)
			}
		})
	}
}

// A passed descriptor is measured before it is mapped: the geometry is
// the server's word, and a generation table (or segment) shorter than
// it claims would fault on the first load past the file's end. The
// handshake is refused and reads stay on OpRead.
func TestFDHandshakeRefusesShortFiles(t *testing.T) {
	if !zeroCopyAvailable {
		t.Skip("fd passing needs the linux build")
	}
	const chunk, lieChunks = 16, 1 << 20
	sized := func(n int64) *os.File {
		f, err := os.CreateTemp(t.TempDir(), "passed")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		if err := f.Truncate(n); err != nil { // sparse: no blocks behind it
			t.Fatal(err)
		}
		return f
	}
	for _, tc := range []struct {
		name       string
		table, seg int64
	}{
		{"short-table", 4096, lieChunks * chunk},
		{"short-segment", lieChunks * 8, 4096},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := shortSockDir(t)
			srv := startServerOptions(t, chunk, 1024, Options{LocalSocketDir: dir})
			files := []*os.File{sized(tc.table), sized(tc.seg)}
			srv.sendFDs = func(conn net.Conn, id uint32) error {
				return sendFilesOverUnix(conn.(*net.UnixConn), id, files,
					fdGeom{segChunks: lieChunks, chunks: lieChunks, chunkSize: chunk, flags: fdHasPool})
			}
			c, err := DialLocal(srv.LocalSocket())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			// A handle whose generation word lies past the table's one
			// real page.
			var h int
			data := bytes.Repeat([]byte{0xC3}, chunk)
			for h < 4096/8 {
				if h, err = c.AllocWrite(sponge.TaskID{Node: 1, PID: 48}, data); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.FetchPoolFDs(); !errors.Is(err, errFDGeometry) {
				t.Fatalf("FetchPoolFDs with a %s = %v, want the geometry-mismatch refusal", tc.name, err)
			}
			if c.fds != nil {
				t.Fatal("fast path armed on files shorter than their geometry")
			}
			buf := make([]byte, chunk)
			if n, err := c.ReadInto(h, buf); err != nil || !bytes.Equal(buf[:n], data) {
				t.Fatalf("ReadInto after the refusal = (%d, %v)", n, err)
			}
			samples, err := obs.ParseText(srv.Metrics().Text())
			if err != nil {
				t.Fatal(err)
			}
			if reads, locs := samples[reqID(srv.Addr(), "read")], samples[reqID(srv.Addr(), "pool_loc")]; reads != 1 || locs != 0 {
				t.Errorf("read=%d pool_loc=%d, want the read on OpRead (1, 0)", reads, locs)
			}
		})
	}
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
	preadTestHook = func() {
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
	defer func() { preadTestHook = nil }()

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

// Close waits for a read that is between its loc exchange and its
// generation check before it releases the passed descriptors: the
// reader's pread and generation load never meet a closed file or an
// unmapped table, and it returns the chunk's bytes or an error.
func TestCloseWaitsForParkedPread(t *testing.T) {
	if !zeroCopyAvailable {
		t.Skip("fd passing needs the linux build")
	}
	srv := startServerOptions(t, 2048, 2, Options{LocalSocketDir: shortSockDir(t)})
	c, err := DialLocal(srv.LocalSocket())
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5C}, 2048)
	h, err := c.AllocWrite(sponge.TaskID{Node: 1, PID: 46}, data)
	if err != nil {
		t.Fatal(err)
	}
	armPoolFDs(t, c)

	parked, release := make(chan struct{}), make(chan struct{})
	preadTestHook = func() {
		close(parked)
		<-release
	}
	defer func() { preadTestHook = nil }()
	type result struct {
		n   int
		err error
	}
	buf := make([]byte, 2048)
	read := make(chan result, 1)
	go func() {
		n, err := c.ReadInto(h, buf)
		read <- result{n, err}
	}()
	<-parked
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	// There is no event for "Close is still waiting": give a premature
	// return a window to show itself.
	select {
	case <-closed:
		// The reader is left parked: released, it would load from an
		// unmapped table.
		t.Fatal("Close returned while a ReadInto was parked between its loc exchange and its pread")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	r := <-read
	if r.err == nil && !bytes.Equal(buf[:r.n], data) {
		t.Errorf("parked read returned %d wrong bytes", r.n)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close still waiting 5 s after the read returned")
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
// whether reads are pread from passed descriptors (the armed unix tier)
// or cross the socket (TCP) must not perturb it — same drops, same
// successes.
func TestFaultStreamUnchangedByPoolFD(t *testing.T) {
	dir := shortSockDir(t)
	run := func(socketDir string) ([]bool, int64) {
		srv := startServerOptions(t, 1024, 4, Options{LocalSocketDir: dir})
		defer srv.Close()
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
	armed, armedPreads := run(dir)
	plain, plainPreads := run("")
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
		t.Errorf("TCP run counted %d descriptor preads, want 0", plainPreads)
	}
	if zeroCopyAvailable && armedPreads == 0 {
		t.Error("armed run counted no descriptor preads; fast path not exercised")
	}
}
