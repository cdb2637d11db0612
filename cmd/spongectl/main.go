// Spongectl runs and exercises a real sponge server over TCP (the
// production transport in internal/sponge/wire).
//
// Usage:
//
//	spongectl serve   [-addr :7070] [-chunk 1048576] [-chunks 1024]
//	                  [-inflight 16] [-read-timeout 0] [-write-timeout 0]
//	                  [-local-socket-dir /tmp] [-spill-dir /tmp]
//	                  [-spill-chunks 0]
//	                  [-metrics-addr 127.0.0.1:9090]
//	spongectl stat    -addr host:port
//	spongectl stats   [-addrs host:port,...] [-urls http://...,...]
//	                  [-prefix sponge_,...] [-raw]
//	spongectl demo    [-chunk 65536] [-chunks 64] [-conns 4]
//
// "serve" runs a sponge server until interrupted; -local-socket-dir
// adds a same-host unix-socket listener, -spill-dir a disk-spill
// overflow tier served zero-copy, and -metrics-addr an HTTP sidecar
// serving the text exposition on /metrics. "stat" prints a
// server's pool state. "stats" scrapes one or more live daemons — over
// the wire protocol (-addrs) or HTTP (-urls) — and renders an
// aggregated per-node metrics table (-raw dumps each exposition
// verbatim instead). "demo" starts an in-process server, spills
// chunks through it concurrently over a pipelined connection pool,
// reads them back with zero-copy ReadInto, and prints a transcript.
//
// The multi-process cluster (real child servers, fault schedules,
// asserted outcomes) is cmd/spongesim: spongesim -run '<case>' -v.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"spongefiles/internal/obs"
	"spongefiles/internal/scenario"
	"spongefiles/internal/sponge"
	"spongefiles/internal/sponge/wire"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "stat":
		stat(os.Args[2:])
	case "stats":
		statsCmd(os.Args[2:])
	case "demo":
		demo(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: spongectl serve|stat|stats|demo [flags]")
	os.Exit(2)
}

// serve runs one sponge server until interrupted. The implementation
// lives in internal/scenario so the scenario harness can re-execute any
// hosting binary (spongectl, spongesim, test binaries) as its child
// servers.
func serve(args []string) {
	scenario.ServeCmd(args)
}

// statsCmd scrapes live daemons and renders the aggregated table. Wire
// endpoints (-addrs) hit any sponge server via OpMetrics; HTTP
// endpoints (-urls) hit a serve sidecar's /metrics.
func statsCmd(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	addrs := fs.String("addrs", "", "comma-separated daemon addresses to scrape over the wire protocol")
	urls := fs.String("urls", "", "comma-separated HTTP exposition URLs to scrape")
	prefix := fs.String("prefix", "", "comma-separated metric-name prefixes to keep (empty = all)")
	raw := fs.Bool("raw", false, "dump each endpoint's raw exposition instead of the table")
	fs.Parse(args)

	type scrape struct{ name, text string }
	var scrapes []scrape
	for _, addr := range splitList(*addrs) {
		c, err := wire.Dial(addr)
		if err != nil {
			fatal(fmt.Errorf("scrape %s: %w", addr, err))
		}
		text, err := c.Metrics()
		c.Close()
		if err != nil {
			fatal(fmt.Errorf("scrape %s: %w", addr, err))
		}
		scrapes = append(scrapes, scrape{addr, text})
	}
	for _, url := range splitList(*urls) {
		resp, err := http.Get(url)
		if err != nil {
			fatal(fmt.Errorf("scrape %s: %w", url, err))
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			fatal(fmt.Errorf("scrape %s: %w", url, err))
		}
		if resp.StatusCode != http.StatusOK {
			fatal(fmt.Errorf("scrape %s: HTTP %d", url, resp.StatusCode))
		}
		scrapes = append(scrapes, scrape{url, string(body)})
	}
	if len(scrapes) == 0 {
		fatal(fmt.Errorf("stats: nothing to scrape; pass -addrs and/or -urls"))
	}
	if *raw {
		for _, s := range scrapes {
			fmt.Printf("== %s ==\n%s", s.name, s.text)
		}
		return
	}
	nodes := make([]obs.NodeSamples, 0, len(scrapes))
	for _, s := range scrapes {
		samples, err := obs.ParseText(s.text)
		if err != nil {
			fatal(fmt.Errorf("parse %s: %w", s.name, err))
		}
		nodes = append(nodes, obs.NodeSamples{Name: s.name, Samples: samples})
	}
	if err := obs.RenderNodeTable(os.Stdout, nodes, splitList(*prefix)...); err != nil {
		fatal(err)
	}
}

// splitList parses a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

func stat(args []string) {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "server address")
	fs.Parse(args)

	c, err := wire.Dial(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer c.Close()
	free, total, size, err := c.Stat()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d/%d chunks free, chunk size %d bytes\n", *addr, free, total, size)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func demo(args []string) {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	chunk := fs.Int("chunk", 1<<16, "chunk size in bytes")
	chunks := fs.Int("chunks", 64, "pool chunks")
	conns := fs.Int("conns", 4, "pipelined connections in the client pool")
	fs.Parse(args)

	pool := sponge.NewPool(*chunk, *chunks)
	srv, err := wire.Serve(pool, "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer srv.Close()
	fmt.Printf("demo server on %s\n", srv.Addr())

	p, err := wire.DialPool(srv.Addr(), *conns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer p.Close()
	c := p.Get()
	fmt.Printf("client pool: %d connections, protocol v%d, chunk size %d\n",
		p.Size(), c.Version(), p.ChunkSize())

	owner := sponge.TaskID{Node: 1, PID: int64(os.Getpid())}
	if err := c.Register(uint64(owner.PID)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Spill concurrently: the pipelined protocol keeps every request in
	// flight at once instead of lock-stepping round trips.
	const spills = 8
	handles := make([]int, spills)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < spills; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := make([]byte, *chunk)
			for j := range data {
				data[j] = byte(i + j)
			}
			h, err := p.AllocWrite(owner, data)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			handles[i] = h
		}(i)
	}
	wg.Wait()
	fmt.Printf("spilled %d chunks concurrently in %v -> handles %v\n",
		spills, time.Since(start), handles)

	free, total, _, _ := p.Stat()
	fmt.Printf("pool: %d/%d free\n", free, total)

	// Read back with ReadInto: one reusable buffer, zero allocations on
	// the hot path.
	buf := make([]byte, *chunk)
	for i, h := range handles {
		n, err := p.ReadInto(h, buf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ok := true
		for j := 0; j < n; j++ {
			if buf[j] != byte(i+j) {
				ok = false
				break
			}
		}
		fmt.Printf("read handle %d: %d bytes, intact=%v\n", h, n, ok)
		if err := p.Free(h); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	free, total, _, _ = p.Stat()
	fmt.Printf("after free: %d/%d free\n", free, total)
	alive, _ := c.Ping(uint64(owner.PID))
	fmt.Printf("liveness check for pid %d: %v\n", owner.PID, alive)
}
