package scenario

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"spongefiles/internal/obs"
	"spongefiles/internal/sponge"
	"spongefiles/internal/sponge/wire"
)

// ServeCmd is the `serve` subcommand every harness-compatible binary
// exposes: run one sponge server until interrupted, printing the
// listen banner the harness parses. spongectl serve and spongesim
// serve both delegate here; the harness re-executes whichever binary
// hosts it. The server closes cleanly on SIGINT and SIGTERM — the
// harness's graceful teardown sends SIGTERM so unix sockets and spill
// files are reclaimed.
func ServeCmd(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	chunk := fs.Int("chunk", 1<<20, "chunk size in bytes (the paper: 1 MB)")
	chunks := fs.Int("chunks", 1024, "number of chunks in the sponge pool")
	metricsAddr := fs.String("metrics-addr", "", "HTTP sidecar address serving /metrics (empty = none; OpMetrics always works)")
	readTO := fs.Duration("read-timeout", 0, "per-frame read deadline (0 = none)")
	writeTO := fs.Duration("write-timeout", 0, "per-write deadline (0 = none)")
	socketDir := fs.String("local-socket-dir", "", "directory for the same-host unix socket (empty = TCP only)")
	spillDir := fs.String("spill-dir", "", "directory for the disk-spill overflow file (empty = no disk tier)")
	spillChunks := fs.Int("spill-chunks", 0, "cap on live disk-spilled chunks (0 = unbounded)")
	fs.Parse(args)

	// The handler must be installed before the banner prints: the
	// harness treats the banner as "ready", and a SIGTERM landing
	// between banner and Notify would hit the default action —
	// immediate death, no socket or spill-file cleanup.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	pool := sponge.NewPool(*chunk, *chunks)
	srv, err := wire.Serve(pool, *addr, wire.Options{
		ReadTimeout:    *readTO,
		WriteTimeout:   *writeTO,
		LocalSocketDir: *socketDir,
		SpillDir:       *spillDir,
		SpillChunks:    *spillChunks,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("sponge server on %s: %d chunks × %d bytes (%d MB pool)\n",
		srv.Addr(), *chunks, *chunk, *chunks**chunk>>20)
	if s := srv.LocalSocket(); s != "" {
		fmt.Printf("local socket %s\n", s)
	}
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(srv.Metrics()))
		go http.Serve(ln, mux)
		fmt.Printf("metrics on http://%s/metrics\n", ln.Addr())
	}
	<-sig
	srv.Close()
}
