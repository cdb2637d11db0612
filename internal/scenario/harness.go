// Package scenario is the hive-style scenario matrix harness: named
// suites of test cases driven against the real multi-process sponge
// cluster (one `serve` child process per node), with per-case fault
// schedules, workloads, and assertions evaluated over scraped obs
// metrics, reported as a machine-readable suite report for CI.
//
// The package has three layers:
//
//   - Harness (this file): spawn one `serve` child process per node,
//     parse each child's listen banner (with a timeout so a wedged
//     child cannot hang the parent), and tear the children down
//     gracefully — SIGTERM, bounded wait, then SIGKILL — so unix
//     sockets and spill files are reclaimed. `spongesim` and the
//     repository benchmark share it.
//   - Spec/Workload/FaultEvent (spec.go, workload.go): the declarative
//     matrix of topology × fault schedule × workload.
//   - Runner/Report (run.go, report.go, seed.go): execute cases,
//     scrape evidence, evaluate assertions, emit the JSON report.
package scenario

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"spongefiles/internal/obs"
	"spongefiles/internal/sponge/wire"
)

// HarnessOptions configures a child-process cluster spawn.
type HarnessOptions struct {
	// Exe is the binary to re-execute; empty means os.Executable().
	// The binary must implement the `serve` subcommand (ServeCmd) —
	// spongectl, spongesim, and the scenario test binary all do.
	Exe string
	// ServeArg is the subcommand name the children are started with;
	// empty means "serve".
	ServeArg string
	// Nodes is how many child servers to spawn; they are numbered
	// 1..Nodes to match the simulated cluster's node IDs (node 0 runs
	// the tasks and the tracker).
	Nodes int
	// ChunkBytes and Chunks size each child's sponge pool.
	ChunkBytes int
	Chunks     int
	// Wire carries the serve options forwarded to every child
	// (inflight bound, deadlines, unix-socket dir, spill tier,
	// zero-copy opt-out).
	Wire wire.Options
	// BannerTimeout bounds how long Spawn waits for one child's listen
	// banner; 0 means the default (10s). A child that wedges before
	// printing its banner is killed and reported instead of hanging
	// the parent forever.
	BannerTimeout time.Duration
	// StopGrace bounds how long Stop waits for a child to exit after
	// SIGTERM before escalating to SIGKILL; 0 means the default (3s).
	StopGrace time.Duration
	// Stderr, when non-nil, receives the children's stderr.
	Stderr io.Writer
}

// child is one spawned server process.
type child struct {
	node int
	cmd  *exec.Cmd
	addr string
	dead bool // killed (or stopped) already; skip at teardown
}

// Harness is a running cluster of child server processes.
type Harness struct {
	opts     HarnessOptions
	children []*child
}

// defaultBannerTimeout bounds the wait for a child's listen banner.
const defaultBannerTimeout = 10 * time.Second

// defaultStopGrace is the SIGTERM-to-SIGKILL escalation window.
const defaultStopGrace = 3 * time.Second

// Spawn launches opts.Nodes child servers and waits for each one's
// listen banner. On any failure the children spawned so far are torn
// down before the error returns, so a half-started cluster never
// leaks processes.
func Spawn(opts HarnessOptions) (*Harness, error) {
	if opts.Exe == "" {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("scenario: resolving executable: %w", err)
		}
		opts.Exe = exe
	}
	if opts.ServeArg == "" {
		opts.ServeArg = "serve"
	}
	if opts.BannerTimeout <= 0 {
		opts.BannerTimeout = defaultBannerTimeout
	}
	if opts.StopGrace <= 0 {
		opts.StopGrace = defaultStopGrace
	}
	h := &Harness{opts: opts}
	for n := 1; n <= opts.Nodes; n++ {
		if err := h.spawnChild(n); err != nil {
			h.Stop()
			return nil, err
		}
	}
	return h, nil
}

// serveArgs builds the child's argument list from the harness options.
func serveArgs(opts HarnessOptions) []string {
	args := []string{opts.ServeArg,
		"-addr", "127.0.0.1:0",
		"-chunk", fmt.Sprint(opts.ChunkBytes),
		"-chunks", fmt.Sprint(opts.Chunks),
		"-read-timeout", opts.Wire.ReadTimeout.String(),
		"-write-timeout", opts.Wire.WriteTimeout.String(),
	}
	// Co-located children share the socket directory, so the parent's
	// transport auto-discovers the same-host tier per child.
	if opts.Wire.LocalSocketDir != "" {
		args = append(args, "-local-socket-dir", opts.Wire.LocalSocketDir)
	}
	if opts.Wire.SpillDir != "" {
		args = append(args, "-spill-dir", opts.Wire.SpillDir,
			"-spill-chunks", fmt.Sprint(opts.Wire.SpillChunks))
	}
	return args
}

// spawnChild starts one child server and parses its banner.
func (h *Harness) spawnChild(n int) error {
	cmd := exec.Command(h.opts.Exe, serveArgs(h.opts)...)
	cmd.Stderr = h.opts.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("scenario: child %d stdout: %w", n, err)
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("scenario: child %d start: %w", n, err)
	}
	c := &child{node: n, cmd: cmd}
	h.children = append(h.children, c)
	addr, err := awaitServeBanner(out, h.opts.BannerTimeout)
	if err != nil {
		return fmt.Errorf("scenario: child %d: %w", n, err)
	}
	c.addr = addr
	return nil
}

// awaitServeBanner reads a child's listen banner with a deadline: a
// child that wedges before printing it is reported (and later killed
// by the caller's teardown) instead of blocking the parent forever.
func awaitServeBanner(out io.Reader, timeout time.Duration) (string, error) {
	type result struct {
		addr string
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		addr, err := ParseServeBanner(bufio.NewReader(out))
		ch <- result{addr, err}
	}()
	select {
	case r := <-ch:
		return r.addr, r.err
	case <-time.After(timeout):
		return "", fmt.Errorf("no serve banner within %v", timeout)
	}
}

// ParseServeBanner extracts the listen address from a child server's
// "sponge server on ADDR: ..." banner line.
func ParseServeBanner(out *bufio.Reader) (string, error) {
	line, err := out.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("reading banner: %w", err)
	}
	const prefix = "sponge server on "
	if !strings.HasPrefix(line, prefix) {
		return "", fmt.Errorf("unexpected banner %q", strings.TrimSpace(line))
	}
	rest := line[len(prefix):]
	if i := strings.IndexByte(rest, ':'); i >= 0 {
		if j := strings.IndexByte(rest[i+1:], ':'); j >= 0 {
			return rest[:i+1+j], nil
		}
	}
	return "", fmt.Errorf("no address in banner %q", strings.TrimSpace(line))
}

// Addrs maps node ID -> listen address for every child still known to
// the harness (killed children keep their last address; dialing them
// fails, which is the point of kill-node faults).
func (h *Harness) Addrs() map[int]string {
	addrs := make(map[int]string, len(h.children))
	for _, c := range h.children {
		if c.addr != "" {
			addrs[c.node] = c.addr
		}
	}
	return addrs
}

// Addr returns one child's listen address ("" if unknown).
func (h *Harness) Addr(node int) string {
	if c := h.child(node); c != nil {
		return c.addr
	}
	return ""
}

// Pid returns one child's process ID (0 if unknown).
func (h *Harness) Pid(node int) int {
	if c := h.child(node); c != nil && c.cmd.Process != nil {
		return c.cmd.Process.Pid
	}
	return 0
}

// Alive reports whether a child has not been killed or stopped by the
// harness (it may still have crashed on its own).
func (h *Harness) Alive(node int) bool {
	c := h.child(node)
	return c != nil && !c.dead
}

func (h *Harness) child(node int) *child {
	for _, c := range h.children {
		if c.node == node {
			return c
		}
	}
	return nil
}

// KillNode SIGKILLs one child — the scenario matrix's "node dies"
// fault: no teardown, no socket cleanup, connections reset. The child
// is reaped so it never zombies.
func (h *Harness) KillNode(node int) error {
	c := h.child(node)
	if c == nil {
		return fmt.Errorf("scenario: kill of unknown node %d", node)
	}
	if c.dead {
		return nil
	}
	c.dead = true
	if c.cmd.Process != nil {
		c.cmd.Process.Kill()
	}
	c.cmd.Wait()
	return nil
}

// StopNode stops one child gracefully: SIGTERM (which the serve loop
// handles by closing its server — removing its unix socket and spill
// file), a bounded wait, then SIGKILL if the child ignores the grace
// window. Always reaps.
func (h *Harness) StopNode(node int) error {
	c := h.child(node)
	if c == nil {
		return fmt.Errorf("scenario: stop of unknown node %d", node)
	}
	h.stopChild(c)
	return nil
}

func (h *Harness) stopChild(c *child) {
	if c.dead {
		return
	}
	c.dead = true
	if c.cmd.Process == nil {
		return
	}
	c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		c.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(h.opts.StopGrace):
		c.cmd.Process.Kill()
		<-done
	}
}

// Stop tears down every remaining child gracefully (SIGTERM, bounded
// wait, SIGKILL). Children already killed or stopped are skipped. Safe
// to call more than once.
func (h *Harness) Stop() {
	for _, c := range h.children {
		h.stopChild(c)
	}
}

// Scrape collects each live child's metrics over OpMetrics, returning
// one NodeSamples per child that answered. Killed children are
// skipped; a live child that fails to answer is skipped too (scraping
// is evidence-gathering, not an assertion).
func (h *Harness) Scrape() []obs.NodeSamples {
	var nodes []obs.NodeSamples
	for _, c := range h.children {
		if c.dead || c.addr == "" {
			continue
		}
		cl, err := wire.Dial(c.addr)
		if err != nil {
			continue
		}
		text, err := cl.Metrics()
		cl.Close()
		if err != nil {
			continue
		}
		samples, err := obs.ParseText(text)
		if err != nil {
			continue
		}
		nodes = append(nodes, obs.NodeSamples{Name: fmt.Sprintf("node%d", c.node), Samples: samples})
	}
	return nodes
}
