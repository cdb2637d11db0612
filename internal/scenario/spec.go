package scenario

import (
	"fmt"

	"spongefiles/internal/simtime"
)

// Spec is one case's topology: how many real child servers, how big
// their pools are, and which sponge-service knobs the simulated half
// runs with. The simulated cluster has Nodes+1 nodes — node 0 runs the
// workload's tasks and the tracker; nodes 1..Nodes are fronted by the
// child processes over the wire transport.
type Spec struct {
	// Nodes is the child-server count (default 3).
	Nodes int
	// PoolChunks is each child's pool size in chunks (default 64).
	PoolChunks int
	// LocalChunks is the simulated per-node sponge pool in chunks
	// (default 2) — kept tiny so spills go remote, through the real
	// children.
	LocalChunks int
	// ReadAhead overrides the readahead window depth (0 = default 4).
	ReadAhead int
	// UnixSockets gives the children a shared socket directory so the
	// parent transport auto-selects the same-host tier (and arms the
	// fd-passing fast paths).
	UnixSockets bool
	// DropRate seeds the fault transport's random drops; the wrapper is
	// installed for every case (rate 0 injects nothing) so drop-rate
	// ramp events always have a place to land.
	DropRate float64
	// Seed drives the deterministic fault stream (default 1).
	Seed int64
}

// withDefaults fills unset Spec fields.
func (s Spec) withDefaults() Spec {
	if s.Nodes <= 0 {
		s.Nodes = 3
	}
	if s.PoolChunks <= 0 {
		s.PoolChunks = 64
	}
	if s.LocalChunks <= 0 {
		s.LocalChunks = 2
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// FaultOp is one fault-schedule operation.
type FaultOp string

// The fault vocabulary. KillNode is a real SIGKILL of the child
// process — discovery happens through live sockets (dial refused,
// retries, blacklist), not through any side channel. Partition and
// heal cut and restore every link between two groups of nodes, and
// drop-rate ramps the random loss; all three drive the seeded
// FaultTransport. Kill-tracker fails the simulated tracker daemon so
// the watchdog's cold election runs; revoke-peer drops the wire
// transport's cached client (and any passed fds) for a node that is
// still alive, proving reads re-negotiate.
const (
	OpKillNode    FaultOp = "kill-node"
	OpKillTracker FaultOp = "kill-tracker"
	OpPartition   FaultOp = "partition"
	OpHeal        FaultOp = "heal"
	OpDropRate    FaultOp = "drop-rate"
	OpRevokePeer  FaultOp = "revoke-peer"
)

// FaultEvent is one scheduled fault. Events anchor either to a virtual
// time (At; applied by a scheduler process on the simulation) or to a
// named workload phase (Phase; applied synchronously when the workload
// reaches that boundary — see the Phase* constants). Phase anchoring
// is how a case says "partition the cluster mid-write, heal it before
// the reads" without guessing virtual durations.
type FaultEvent struct {
	At    simtime.Duration
	Phase string
	Op    FaultOp
	// Node is the target of kill-node and revoke-peer.
	Node int
	// A and B are the two sides of a partition/heal (every cross link
	// is cut or healed).
	A, B []int
	// Rate is the drop rate for drop-rate ops.
	Rate float64
}

// The workload phases fault events may anchor to. Spill round-trip
// workloads fire all of them in order; job workloads fire PreWrite
// before submitting and PostRead after the result is verified. An event
// anchored at a phase its workload never fires fails the case.
const (
	PhasePreWrite   = "pre-write"
	PhaseMidWrite   = "mid-write"
	PhasePostWrite  = "post-write"
	PhaseMidRead    = "mid-read"
	PhasePostRead   = "post-read"
	PhasePostDelete = "post-delete"
)

// Assertion is one predicate over the merged metric scrape (the
// parent service's registry plus the sum of every live child's
// OpMetrics exposition). Metric is a full series id — labels included,
// e.g. `sponge_tracker_updates_total{kind="full"}` — and must exist
// in the scrape: asserting a renamed or never-registered series fails
// the case loudly instead of vacuously passing.
type Assertion struct {
	Metric string `json:"metric"`
	Op     string `json:"op"` // "==", "!=", ">=", "<=", ">", "<"
	Value  int64  `json:"value"`
}

// Eval applies the assertion to a scraped value.
func (a Assertion) Eval(v int64) bool {
	switch a.Op {
	case "==":
		return v == a.Value
	case "!=":
		return v != a.Value
	case ">=":
		return v >= a.Value
	case "<=":
		return v <= a.Value
	case ">":
		return v > a.Value
	case "<":
		return v < a.Value
	}
	return false
}

// String renders the assertion for failure messages.
func (a Assertion) String() string {
	return fmt.Sprintf("%s %s %d", a.Metric, a.Op, a.Value)
}

// Case is one named scenario: a topology, a fault schedule, a
// workload, and the assertions that make its pass/fail verdict.
type Case struct {
	Name string
	Desc string
	Spec Spec
	// StartDelay holds the workload back in virtual time so timed
	// fault events can land first (e.g. rolling node death before the
	// first write).
	StartDelay simtime.Duration
	Faults     []FaultEvent
	Workload   Workload
	Assert     []Assertion
	// Quick marks the case cheap enough for the check.sh smoke run.
	Quick bool
}

// Suite is a named set of cases.
type Suite struct {
	Name  string
	Cases []Case
}

// Validate rejects malformed cases before any process is spawned.
func (c *Case) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("scenario: case with empty name")
	}
	if c.Workload == nil {
		return fmt.Errorf("scenario: case %s has no workload", c.Name)
	}
	if len(c.Assert) == 0 {
		return fmt.Errorf("scenario: case %s has no assertions", c.Name)
	}
	spec := c.Spec.withDefaults()
	for _, ev := range c.Faults {
		if ev.Phase == "" && ev.At < 0 {
			return fmt.Errorf("scenario: case %s: event %s has negative time", c.Name, ev.Op)
		}
		switch ev.Phase {
		case "", PhasePreWrite, PhaseMidWrite, PhasePostWrite, PhaseMidRead, PhasePostRead, PhasePostDelete:
		default:
			return fmt.Errorf("scenario: case %s: event %s anchors at unknown phase %q", c.Name, ev.Op, ev.Phase)
		}
		switch ev.Op {
		case OpKillNode, OpRevokePeer:
			if ev.Node < 1 || ev.Node > spec.Nodes {
				return fmt.Errorf("scenario: case %s: event %s targets node %d outside 1..%d",
					c.Name, ev.Op, ev.Node, spec.Nodes)
			}
		case OpPartition, OpHeal:
			if len(ev.A) == 0 || len(ev.B) == 0 {
				return fmt.Errorf("scenario: case %s: %s needs both groups", c.Name, ev.Op)
			}
		case OpKillTracker, OpDropRate:
		default:
			return fmt.Errorf("scenario: case %s: unknown fault op %q", c.Name, ev.Op)
		}
	}
	for _, a := range c.Assert {
		if !validOp(a.Op) {
			return fmt.Errorf("scenario: case %s: assertion %s has unknown op", c.Name, a)
		}
	}
	return nil
}

func validOp(op string) bool {
	switch op {
	case "==", "!=", ">=", "<=", ">", "<":
		return true
	}
	return false
}
