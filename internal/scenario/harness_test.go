package scenario

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spongefiles/internal/sponge/wire"
)

func newBufReader(s string) *bufio.Reader {
	return bufio.NewReader(strings.NewReader(s))
}

// TestMain doubles as the harness child: when the test binary is
// re-executed with "serve" it becomes a sponge server, and with
// "serve-hang" it wedges without printing a banner — the fixture for
// the banner-timeout path.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			ServeCmd(os.Args[2:])
			return
		case "serve-hang":
			select {}
		}
	}
	os.Exit(m.Run())
}

func TestHarnessSpawnScrapeStop(t *testing.T) {
	h, err := Spawn(HarnessOptions{Nodes: 2, ChunkBytes: 4096, Chunks: 8})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	defer h.Stop()

	addrs := h.Addrs()
	if len(addrs) != 2 {
		t.Fatalf("Addrs: got %d, want 2", len(addrs))
	}
	for n := 1; n <= 2; n++ {
		if addrs[n] == "" {
			t.Fatalf("node %d has no address", n)
		}
		if !h.Alive(n) {
			t.Fatalf("node %d not alive after spawn", n)
		}
		if h.Pid(n) == 0 {
			t.Fatalf("node %d has no pid", n)
		}
	}

	scr := h.Scrape()
	if len(scr) != 2 {
		t.Fatalf("Scrape: got %d nodes, want 2", len(scr))
	}
	// Every wire series carries a {listen=...} label, so match by
	// prefix rather than exact id.
	for _, ns := range scr {
		found := false
		for id := range ns.Samples {
			if strings.HasPrefix(id, "spongewire_requests_total{") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s scrape missing spongewire_requests_total series", ns.Name)
		}
	}

	// KillNode is abrupt: the child stops answering and is skipped by
	// later scrapes.
	if err := h.KillNode(1); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	if h.Alive(1) {
		t.Fatal("node 1 alive after kill")
	}
	if scr := h.Scrape(); len(scr) != 1 {
		t.Fatalf("Scrape after kill: got %d nodes, want 1", len(scr))
	}

	// Stop is graceful and idempotent.
	h.Stop()
	h.Stop()
	if h.Alive(2) {
		t.Fatal("node 2 alive after Stop")
	}
}

func TestHarnessBannerTimeout(t *testing.T) {
	start := time.Now()
	_, err := Spawn(HarnessOptions{
		Nodes:         1,
		ServeArg:      "serve-hang", // prints nothing, never exits
		ChunkBytes:    4096,
		Chunks:        8,
		BannerTimeout: 200 * time.Millisecond,
		StopGrace:     200 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("Spawn of a wedged child succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("banner timeout took %v, want bounded", elapsed)
	}
}

func TestHarnessGracefulStopReclaimsSocket(t *testing.T) {
	dir := t.TempDir()
	h, err := Spawn(HarnessOptions{
		Nodes:      1,
		ChunkBytes: 4096,
		Chunks:     8,
		Wire:       wire.Options{LocalSocketDir: dir},
	})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	defer h.Stop()

	sockets, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(sockets) == 0 {
		t.Fatalf("no unix socket in %s (err %v)", dir, err)
	}
	if err := h.StopNode(1); err != nil {
		t.Fatalf("StopNode: %v", err)
	}
	// SIGTERM reaches ServeCmd's handler, which closes the server and
	// unlinks its socket — the point of graceful teardown.
	sockets, _ = filepath.Glob(filepath.Join(dir, "*"))
	if len(sockets) != 0 {
		t.Fatalf("socket files survived graceful stop: %v", sockets)
	}
}

func TestParseServeBannerRejectsGarbage(t *testing.T) {
	for _, line := range []string{"hello\n", "sponge server on \n"} {
		if _, err := ParseServeBanner(newBufReader(line)); err == nil {
			t.Errorf("banner %q parsed", line)
		}
	}
	addr, err := ParseServeBanner(newBufReader("sponge server on 127.0.0.1:7070: 8 chunks × 4096 bytes (0 MB pool)\n"))
	if err != nil || addr != "127.0.0.1:7070" {
		t.Fatalf("got %q, %v", addr, err)
	}
}

// The runner's teardown invariant against a live child: a sender that
// stalls mid-chunk holds a pin in the child's pool, the child's scrape
// says so, pinLeaks names it, and hanging up clears it.
func TestPinLeaksSeesAChildsOpenReceive(t *testing.T) {
	const chunk = 4096
	h, err := Spawn(HarnessOptions{Nodes: 1, ChunkBytes: chunk, Chunks: 2})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	defer h.Stop()
	leaks := func() (all []string) {
		for _, ns := range h.Scrape() {
			all = append(all, pinLeaks(ns)...)
		}
		return all
	}
	if got := leaks(); len(got) != 0 {
		t.Fatalf("idle child reports leaks: %v", got)
	}
	conn, err := net.Dial("tcp", h.Addrs()[1])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	// The hello (length, request id 0, op, version), then an alloc_write
	// that declares a whole chunk and delivers the head and half of it.
	if _, err := conn.Write([]byte{2, 0, 0, 0, 0, 0, 0, 0, wire.OpHello, wire.ProtocolV2}); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 8+6) // header, then status, version, chunk size
	if _, err := io.ReadFull(conn, reply); err != nil || reply[8] != wire.StatusOK {
		t.Fatalf("hello reply % x: %v", reply, err)
	}
	req := binary.LittleEndian.AppendUint32(nil, 13+chunk) // body length
	req = binary.LittleEndian.AppendUint32(req, 1)         // request id
	req = append(req, wire.OpAllocWrite)
	req = binary.LittleEndian.AppendUint32(req, 1)  // owner node
	req = binary.LittleEndian.AppendUint64(req, 51) // owner pid
	if _, err := conn.Write(append(req, make([]byte, chunk/2)...)); err != nil {
		t.Fatal(err)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: leaks = %v", what, leaks())
			}
		}
	}
	waitFor("the stalled receive never showed as a pin", func() bool { return len(leaks()) == 1 })
	conn.Close()
	waitFor("the pin outlived its connection", func() bool { return len(leaks()) == 0 })
}
