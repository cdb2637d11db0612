// Spongectl runs and inspects a real sponge server over TCP (the
// production transport in internal/sponge/wire). Run it with no
// arguments for the subcommands, and a subcommand with -h for its flags.
//
// "serve" runs a sponge server until interrupted; -local-socket-dir
// adds a same-host unix-socket listener, -spill-dir a disk-spill
// overflow tier served zero-copy, and -metrics-addr an HTTP sidecar
// serving the text exposition on /metrics. "stat" prints a
// server's pool state. "stats" scrapes one or more live daemons — over
// the wire protocol (-addrs) or HTTP (-urls) — and renders an
// aggregated per-node metrics table (-raw dumps each exposition
// verbatim instead).
//
// The multi-process cluster (real child servers, fault schedules,
// asserted outcomes) is cmd/spongesim: spongesim -run '<case>' -v;
// the case spill-roundtrip-clean is the spill, read back and free of a
// file against live servers, digest-verified.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"spongefiles/internal/obs"
	"spongefiles/internal/scenario"
	"spongefiles/internal/sponge/wire"
)

// commands is the subcommand table: main dispatches on it and usage
// prints it. Each command's flags are its own FlagSet's (-h lists them).
var commands = []struct {
	name, about string
	run         func(args []string)
}{
	// serve lives in internal/scenario so the scenario harness can
	// re-execute any hosting binary (spongectl, spongesim, test binaries)
	// as its child servers.
	{"serve", "run a sponge server until interrupted", scenario.ServeCmd},
	{"stat", "print a server's pool state", stat},
	{"stats", "scrape live servers (-addrs over the wire, -urls over HTTP) into a per-node metrics table", statsCmd},
}

func main() {
	if len(os.Args) >= 2 {
		for _, c := range commands {
			if c.name == os.Args[1] {
				c.run(os.Args[2:])
				return
			}
		}
	}
	usage()
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: spongectl <command> [flags]   (spongectl <command> -h lists the flags)")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-6s %s\n", c.name, c.about)
	}
	os.Exit(2)
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
