package bench

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"spongefiles/internal/sponge"
	"spongefiles/internal/sponge/wire"
)

// tierChunk is the payload size of every tier-ladder rung: the 64 KiB
// real chunk the wire benchmarks standardize on.
const tierChunk = 64 << 10

// TierRung is one measured rung of the local transport tier ladder:
// steady-state sequential ReadInto of one chunk against an in-process
// daemon.
type TierRung struct {
	Rung         string  `json:"rung"`
	PayloadBytes int     `json:"payload_bytes"`
	NsPerOp      int64   `json:"ns_per_op"`
	MBPerS       float64 `json:"mb_per_s"`
	// Skipped marks a rung this host cannot run (fd passing off-linux,
	// a pool that cannot be file-backed); its numbers are zero.
	Skipped bool `json:"skipped,omitempty"`
}

// tierConfig describes one rung's server options and read path.
type tierConfig struct {
	rung   string
	local  bool // dial the unix socket instead of loopback TCP
	spill  bool // read a spilled chunk instead of a pool-resident one
	fdPass bool // arm the direct-pread fast path
}

// tierLadder is the fixed rung order of BENCH_tier.json's table.
var tierLadder = []tierConfig{
	{rung: "pool-read/loopback-tcp"},
	{rung: "pool-read/local-unix", local: true},
	{rung: "spill-read/loopback-tcp-sendfile", spill: true},
	{rung: "spill-read/local-unix-sendfile", local: true, spill: true},
	{rung: "spill-read/local-unix-fd-pread", local: true, spill: true, fdPass: true},
	{rung: "pool-read/local-unix-fd-pread", local: true, fdPass: true},
}

// RunTierLadder measures every rung for roughly dur each and returns
// them in ladder order. Rungs the host cannot run come back Skipped.
func RunTierLadder(dur time.Duration) ([]TierRung, error) {
	out := make([]TierRung, 0, len(tierLadder))
	for _, tc := range tierLadder {
		r, err := runTierRung(tc, dur)
		if err != nil {
			return nil, fmt.Errorf("bench: tier rung %s: %w", tc.rung, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func runTierRung(tc tierConfig, dur time.Duration) (TierRung, error) {
	r := TierRung{Rung: tc.rung, PayloadBytes: tierChunk}
	var opts wire.Options
	if tc.local {
		dir, err := os.MkdirTemp("", "sp")
		if err != nil {
			return r, err
		}
		defer os.RemoveAll(dir)
		opts.LocalSocketDir = dir
	}
	poolChunks := 4
	if tc.spill {
		poolChunks = 1
		opts.SpillDir = os.TempDir()
	}
	srv, err := wire.ServeOptions(sponge.NewPool(tierChunk, poolChunks), "127.0.0.1:0", opts)
	if err != nil {
		return r, err
	}
	defer srv.Close()
	var c *wire.Client
	if tc.local {
		c, err = wire.DialLocal(srv.LocalSocket())
	} else {
		c, err = wire.Dial(srv.Addr())
	}
	if err != nil {
		return r, err
	}
	defer c.Close()

	owner := sponge.TaskID{Node: 1, PID: 61}
	data := bytes.Repeat([]byte{0x5A}, tierChunk)
	var h int
	if tc.spill {
		for i := 0; i < poolChunks; i++ {
			if _, err := c.AllocWrite(owner, data); err != nil {
				return r, err
			}
		}
		if h, err = c.AllocWrite(owner, data); err != nil {
			return r, err
		}
		if h&wire.SpillHandleBit == 0 {
			return r, fmt.Errorf("overflow alloc stayed in the pool")
		}
	} else if h, err = c.AllocWrite(owner, data); err != nil {
		return r, err
	}
	if tc.fdPass && c.FetchPoolFDs() != nil {
		// Off-linux, or a server with nothing to pass: the rung does not
		// exist on this host.
		r.Skipped = true
		return r, nil
	}

	buf := make([]byte, tierChunk)
	read := func() error {
		n, err := c.ReadInto(h, buf)
		if err != nil {
			return err
		}
		if n != tierChunk {
			return fmt.Errorf("short read: %d bytes", n)
		}
		return nil
	}
	for i := 0; i < 200; i++ { // warm every pool: buffers, calls, headers
		if err := read(); err != nil {
			return r, err
		}
	}
	start := time.Now()
	ops := 0
	for time.Since(start) < dur {
		for i := 0; i < 64; i++ {
			if err := read(); err != nil {
				return r, err
			}
		}
		ops += 64
	}
	elapsed := time.Since(start)
	r.NsPerOp = elapsed.Nanoseconds() / int64(ops)
	r.MBPerS = float64(tierChunk) / float64(r.NsPerOp) * 1000
	r.MBPerS = float64(int64(r.MBPerS)) // whole MB/s, like the checked-in table
	return r, nil
}

// TierHeader labels TierRows' columns.
var TierHeader = []string{"rung", "payload", "ns/op", "MB/s"}

// TierRows formats the rungs for FormatTable.
func TierRows(rungs []TierRung) [][]string {
	var out [][]string
	for _, r := range rungs {
		if r.Skipped {
			out = append(out, []string{r.Rung, fmt.Sprintf("%d", r.PayloadBytes), "skipped", "-"})
			continue
		}
		out = append(out, []string{
			r.Rung,
			fmt.Sprintf("%d", r.PayloadBytes),
			fmt.Sprintf("%d", r.NsPerOp),
			fmt.Sprintf("%.0f", r.MBPerS),
		})
	}
	return out
}

// TierJSON renders the rungs as the BENCH_tier.json artifact; the
// config half is what the run was measured under.
func TierJSON(dur time.Duration, rungs []TierRung) []byte {
	return reportJSON(struct {
		PayloadBytes   int     `json:"payload_bytes"`
		SecondsPerRung float64 `json:"seconds_per_rung"`
	}{tierChunk, dur.Seconds()}, rungs)
}
