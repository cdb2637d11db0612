package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"spongefiles/internal/sponge"
)

func startServer(t *testing.T, chunkSize, chunks int) (*Server, *Client) {
	t.Helper()
	pool := sponge.NewPool(chunkSize, chunks)
	srv, err := Serve(pool, "127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

// readChunk reads a whole chunk through ReadInto, the client's one read
// call, into a buffer the size of the server's chunks.
func readChunk(c *Client, h int) ([]byte, error) {
	buf := make([]byte, c.ChunkSize())
	n, err := c.ReadInto(h, buf)
	return buf[:n], err
}

func TestAllocWriteReadFree(t *testing.T) {
	_, c := startServer(t, 4096, 4)
	owner := sponge.TaskID{Node: 3, PID: 77}
	data := bytes.Repeat([]byte("sponge"), 100)
	h, err := c.AllocWrite(owner, data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readChunk(c, h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %d bytes, want %d", len(got), len(data))
	}
	if err := c.Free(h); err != nil {
		t.Fatal(err)
	}
	free, total, size, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if free != 4 || total != 4 || size != 4096 {
		t.Fatalf("stat = %d/%d/%d", free, total, size)
	}
}

func TestExhaustionReturnsNoFreeChunk(t *testing.T) {
	_, c := startServer(t, 128, 2)
	owner := sponge.TaskID{Node: 1, PID: 1}
	if _, err := c.AllocWrite(owner, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AllocWrite(owner, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AllocWrite(owner, []byte("c")); err != ErrNoFreeChunk {
		t.Fatalf("err = %v, want ErrNoFreeChunk", err)
	}
}

func TestFullChunkPayload(t *testing.T) {
	const size = 1 << 16
	_, c := startServer(t, size, 1)
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 31)
	}
	h, err := c.AllocWrite(sponge.TaskID{Node: 0, PID: 9}, data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readChunk(c, h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("full-chunk payload corrupt")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := startServer(t, 1024, 64)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			owner := sponge.TaskID{Node: g, PID: int64(g) + 1}
			for i := 0; i < 20; i++ {
				data := []byte(fmt.Sprintf("g%d-i%d", g, i))
				h, err := c.AllocWrite(owner, data)
				if err != nil {
					errs <- err
					return
				}
				got, err := readChunk(c, h)
				if err != nil || !bytes.Equal(got, data) {
					errs <- fmt.Errorf("g%d i%d corrupt (%v)", g, i, err)
					return
				}
				if err := c.Free(h); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestOversizedFrameDropsConnection(t *testing.T) {
	srv, _ := startServer(t, 1024, 4)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A payload bigger than a chunk exceeds the server's frame limit;
	// the server drops the connection rather than buffering it.
	big := make([]byte, 64<<10)
	if _, err := c.AllocWrite(sponge.TaskID{Node: 0, PID: 1}, big); err == nil {
		t.Fatal("oversized frame should fail")
	}
}

func TestFreeOfBadHandle(t *testing.T) {
	_, c := startServer(t, 128, 2)
	if err := c.Free(7); err == nil {
		t.Fatal("free of unallocated handle should fail")
	}
}

// A handle is the network's word, and the server serves its connections
// concurrently: of several frees of one chunk, one on each of eight
// connections, exactly one is answered StatusOK and the rest
// StatusNoFreeChunk, and a free that races the owner's reaping loses or
// wins cleanly. Neither may take the daemon down, leak a chunk or a pin,
// or put a connection out of step.
func TestConcurrentFreeOfOneHandle(t *testing.T) {
	const chunks, frees, rounds = 4, 8, 2000
	srv, c := startServer(t, 64, chunks)
	freers := make([]*Client, frees)
	for g := range freers {
		fc, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer fc.Close()
		freers[g] = fc
	}
	owner := sponge.TaskID{Node: 1, PID: 51}
	alloc := func() int {
		t.Helper()
		h, err := c.AllocWrite(owner, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	for r := 0; r < rounds; r++ {
		h := alloc()
		errs := make(chan error, frees)
		for _, fc := range freers {
			go func() { errs <- fc.Free(h) }()
		}
		ok := 0
		for g := 0; g < frees; g++ {
			switch err := <-errs; {
			case err == nil:
				ok++
			case !errors.Is(err, ErrNoFreeChunk):
				t.Fatalf("round %d: a losing free = %v, want ErrNoFreeChunk", r, err)
			}
		}
		if ok != 1 {
			t.Fatalf("round %d: %d of %d frees of one handle succeeded, want exactly 1", r, ok, frees)
		}
	}
	for r := 0; r < rounds; r++ {
		h := alloc()
		reaped := make(chan int, 1)
		go func() { reaped <- srv.pool.FreeOwnedBy(owner) }()
		err := c.Free(h)
		if err != nil && !errors.Is(err, ErrNoFreeChunk) {
			t.Fatalf("round %d: free racing FreeOwnedBy = %v", r, err)
		}
		if n := <-reaped; (n == 1) == (err == nil) {
			t.Fatalf("round %d: FreeOwnedBy reclaimed %d and Free returned %v: the chunk was freed twice or not at all", r, n, err)
		}
	}
	if st := srv.pool.Stats(); st.FreeChunks != chunks || st.Pinned != 0 {
		t.Fatalf("pool not restored: %d of %d chunks free, %d pinned", st.FreeChunks, chunks, st.Pinned)
	}
	h := alloc()
	if got, err := readChunk(c, h); err != nil || string(got) != "x" {
		t.Fatalf("read on the connection after the races = (%q, %v)", got, err)
	}
	if err := c.Free(h); err != nil {
		t.Fatal(err)
	}
}

func TestDialNegotiatesV2(t *testing.T) {
	_, c := startServer(t, 4096, 4)
	if c.ChunkSize() != 4096 {
		t.Fatalf("chunk size = %d, want 4096", c.ChunkSize())
	}
}

// One pipelined client shared by many goroutines: interleaved responses
// on a single connection must route back to the right caller.
func TestPipelinedSharedClientNoCrossTalk(t *testing.T) {
	_, c := startServer(t, 1024, 64)
	const workers, ops = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			owner := sponge.TaskID{Node: g, PID: int64(g) + 1}
			buf := make([]byte, 1024)
			for i := 0; i < ops; i++ {
				data := bytes.Repeat([]byte{byte(g)*31 + byte(i)}, 64+g*16)
				h, err := c.AllocWrite(owner, data)
				if err != nil {
					errs <- err
					return
				}
				n, err := c.ReadInto(h, buf)
				if err != nil || !bytes.Equal(buf[:n], data) {
					errs <- fmt.Errorf("g%d i%d cross-talk or corrupt (%v)", g, i, err)
					return
				}
				if err := c.Free(h); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestReadInto(t *testing.T) {
	_, c := startServer(t, 4096, 4)
	data := bytes.Repeat([]byte("zc"), 200)
	h, err := c.AllocWrite(sponge.TaskID{Node: 1, PID: 5}, data)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := c.ReadInto(h, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], data) {
		t.Fatalf("ReadInto got %d bytes, want %d", n, len(data))
	}
	// A too-small buffer fails with io.ErrShortBuffer but must not
	// poison the connection.
	if _, err := c.ReadInto(h, make([]byte, 10)); !errors.Is(err, io.ErrShortBuffer) {
		t.Fatalf("short buffer err = %v, want io.ErrShortBuffer", err)
	}
	if n, err := c.ReadInto(h, buf); err != nil || !bytes.Equal(buf[:n], data) {
		t.Fatalf("connection unusable after short-buffer read: %v", err)
	}
}

// A client that cannot learn the chunk size must not guess one: Dial
// propagates a failed handshake.
func TestDialPropagatesHandshakeError(t *testing.T) {
	// Server that accepts and slams the connection: the hello can never
	// complete.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	if _, err := Dial(ln.Addr().String()); err == nil {
		t.Fatal("Dial against a dead handshake should fail, not guess a chunk size")
	}
}

// A peer that answers the hello with StatusBadRequest does not speak
// v2. Dial reports that, naming the version, and asks nothing further.
func TestDialRefusedHelloNamesVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	extra := make(chan int, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		id, _, err := readTestFrame(conn)
		if err != nil {
			return
		}
		writeTestFrame(conn, id, []byte{StatusBadRequest})
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, _ := io.Copy(io.Discard, conn)
		extra <- int(n)
	}()
	_, err = Dial(ln.Addr().String())
	if !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), "v2") {
		t.Fatalf("Dial against a peer refusing the hello = %v, want ErrBadRequest naming v2", err)
	}
	if n := <-extra; n != 0 {
		t.Fatalf("client sent %d more bytes after the refused hello", n)
	}
}

// Before the hello a daemon reads exactly one frame, and nothing longer
// than a hello: a longer frame is dropped on its length alone, with its
// body unread. An empty frame or an op that
// is not a handshake is refused under its request's ID and the
// connection closed. A hello is answered under its request's ID, and
// the connection is then pipelined.
func TestPreHelloFrameLimit(t *testing.T) {
	const chunk = 64 << 10
	srv, _ := startServer(t, chunk, 4)
	header := func(n, id uint32) []byte {
		return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, n), id)
	}
	hello := []byte{StatusOK, ProtocolV2}
	hello = binary.LittleEndian.AppendUint32(hello, chunk)
	for _, tc := range []struct {
		name string
		send []byte // a frame header and whatever of its body is sent
		id   uint32 // the reply's request ID
		// reply is the reply's body; nil when the connection is dropped
		// unanswered. Only a hello's reply leaves the connection open.
		reply []byte
	}{
		// 4 KiB is well inside the chunk-size limit. A server that waits
		// for the body never closes.
		{"4KiB-header-only", header(4<<10, 1), 0, nil},
		{"one-past-the-limit", header(preHelloLimit+1, 1), 0, nil},
		{"empty-frame", header(0, 5), 5, []byte{StatusBadRequest}},
		{"stat", append(header(1, 1), OpStat), 1, []byte{StatusBadRequest}},
		{"hello-as-request-7", append(header(2, 7), OpHello, ProtocolV2), 7, hello},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Write(tc.send); err != nil {
				t.Fatal(err)
			}
			if tc.reply != nil {
				id, resp, err := readTestFrame(conn)
				if err != nil || id != tc.id || !bytes.Equal(resp, tc.reply) {
					t.Fatalf("reply = (id %d, %v, %v), want (id %d, %v)", id, resp, err, tc.id, tc.reply)
				}
			}
			if tc.reply != nil && tc.reply[0] == StatusOK {
				roundTrip(t, conn, []byte("pipelined"))
				return
			}
			if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("read after the first frame = (%d, %v), want EOF (connection dropped)", n, err)
			}
		})
	}
}

// dialRawV2 opens a raw TCP socket and completes the hello by hand so
// tests can then speak malformed frames.
func dialRawV2(t *testing.T, addr string) net.Conn {
	t.Helper()
	return dialRawAddr(t, "tcp", addr)
}

// dialRaw is dialRawV2 on either of a server's tiers: "tcp" reaches its
// address, "unix" its local socket.
func dialRaw(t *testing.T, srv *Server, tier string) net.Conn {
	t.Helper()
	if tier == "unix" {
		return dialRawAddr(t, tier, srv.LocalSocket())
	}
	return dialRawAddr(t, tier, srv.Addr())
}

func dialRawAddr(t *testing.T, network, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeTestFrame(conn, 0, []byte{OpHello, ProtocolV2}); err != nil {
		t.Fatal(err)
	}
	if _, resp, err := readTestFrame(conn); err != nil || len(resp) != helloRespLen || resp[0] != StatusOK {
		t.Fatalf("hello reply = (%v, %v)", resp, err)
	}
	return conn
}

// writeTestFrame writes one frame by hand: length, request id, body.
func writeTestFrame(w io.Writer, id uint32, body []byte) error {
	f := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	f = binary.LittleEndian.AppendUint32(f, id)
	_, err := w.Write(append(f, body...))
	return err
}

// readTestFrame reads one frame by hand, returning its request id and
// body.
func readTestFrame(r io.Reader) (id uint32, body []byte, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	body = make([]byte, binary.LittleEndian.Uint32(hdr[0:4]))
	_, err = io.ReadFull(r, body)
	return binary.LittleEndian.Uint32(hdr[4:8]), body, err
}

func TestServerDropsOversizedV2Frame(t *testing.T) {
	srv, _ := startServer(t, 1024, 4)
	conn := dialRawV2(t, srv.Addr())
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<30) // far past chunk+slack
	binary.LittleEndian.PutUint32(hdr[4:8], 1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after oversized frame = %v, want EOF (connection dropped)", err)
	}
}

func TestServerSurvivesTruncatedFrame(t *testing.T) {
	srv, _ := startServer(t, 1024, 4)
	conn := dialRawV2(t, srv.Addr())
	// Promise 50 bytes, deliver 10, hang up.
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 50)
	binary.LittleEndian.PutUint32(hdr[4:8], 7)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// The server must shrug the connection off and keep serving others.
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, _, _, err := c2.Stat(); err != nil {
		t.Fatalf("server unhealthy after truncated frame: %v", err)
	}
}

// fakeV2Server negotiates the hello and then hands the connection to
// misbehave, which can violate the protocol at will.
func fakeV2Server(t *testing.T, chunkSize int, misbehave func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				id, _, err := readTestFrame(conn)
				if err != nil {
					return
				}
				resp := make([]byte, helloRespLen)
				resp[0] = StatusOK
				resp[1] = ProtocolV2
				binary.LittleEndian.PutUint32(resp[2:6], uint32(chunkSize))
				if err := writeTestFrame(conn, id, resp); err != nil {
					return
				}
				misbehave(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

func TestClientRejectsOversizedResponseFrame(t *testing.T) {
	addr := fakeV2Server(t, 1024, func(conn net.Conn) {
		// Swallow whatever request arrives, answer with an impossible
		// frame length.
		buf := make([]byte, 256)
		if _, err := conn.Read(buf); err != nil {
			return
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], 1<<30)
		binary.LittleEndian.PutUint32(hdr[4:8], 1)
		conn.Write(hdr[:])
		// Hold the connection open; the client must bail on its own.
		io.Copy(io.Discard, conn)
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, _, err := c.Stat(); err == nil {
		t.Fatal("oversized response frame should fail the request")
	}
	// The violation poisons the connection: later requests fail fast.
	if _, err := readChunk(c, 0); err == nil {
		t.Fatal("connection should be poisoned after a protocol violation")
	}
}

func TestClientRejectsTruncatedResponse(t *testing.T) {
	addr := fakeV2Server(t, 1024, func(conn net.Conn) {
		buf := make([]byte, 256)
		if _, err := conn.Read(buf); err != nil {
			return
		}
		// Promise a 100-byte response, send 3 bytes of it, hang up.
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], 100)
		binary.LittleEndian.PutUint32(hdr[4:8], 1)
		conn.Write(hdr[:])
		conn.Write([]byte{StatusOK, 1, 2})
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := readChunk(c, 0); err == nil {
		t.Fatal("truncated response should fail the request")
	}
}
