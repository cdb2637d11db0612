package scenario

import "spongefiles/internal/simtime"

// SeedSuite is the shipped scenario library: every fault-tolerance
// claim the repo makes, as one named case each, run against real child
// server processes. EXPERIMENTS.md carries the prose table; this is
// the executable version.
func SeedSuite() Suite {
	ok := []Assertion{
		{Metric: "scenario_workload_ok", Op: "==", Value: 1},
		{Metric: "scenario_output_digest_match", Op: "==", Value: 1},
		{Metric: "sponge_chunks_lost_total", Op: "==", Value: 0},
	}
	with := func(more ...Assertion) []Assertion {
		return append(append([]Assertion{}, ok...), more...)
	}
	return Suite{
		Name: "seed",
		Cases: []Case{
			{
				Name:     "spill-roundtrip-clean",
				Desc:     "fault-free spill through 3 child servers, digest-verified read-back",
				Quick:    true,
				Spec:     Spec{Nodes: 3},
				Workload: SpillWorkload{MB: 16},
				Assert: with(
					Assertion{Metric: `sponge_spill_chunks_total{kind="remote_mem"}`, Op: ">=", Value: 1},
					Assertion{Metric: `sponge_transport_tier_total{tier="tcp"}`, Op: ">=", Value: 1},
				),
			},
			{
				Name:  "tracker-failover-mid-job",
				Desc:  "tracker killed mid-write; the watchdog's cold election re-polls under the next epoch, no chunk lost",
				Quick: true,
				Spec:  Spec{Nodes: 3},
				Faults: []FaultEvent{
					{Phase: PhaseMidWrite, Op: OpKillTracker},
				},
				Workload: SpillWorkload{MB: 32},
				Assert: with(
					Assertion{Metric: "sponge_tracker_failovers_total", Op: ">=", Value: 1},
					Assertion{Metric: "sponge_tracker_leader_epoch", Op: ">=", Value: 2},
				),
			},
			{
				Name: "rolling-node-death",
				Desc: "two of five children SIGKILLed before the writes; allocator blacklists and routes around them",
				// Small per-child pools force the spill to spread across
				// most of the cluster, so the allocator must encounter
				// the dead nodes instead of affinity-pinning one child.
				Spec:       Spec{Nodes: 5, PoolChunks: 8},
				StartDelay: 50 * simtime.Millisecond,
				Faults: []FaultEvent{
					{At: 10 * simtime.Millisecond, Op: OpKillNode, Node: 4},
					{At: 20 * simtime.Millisecond, Op: OpKillNode, Node: 5},
				},
				Workload: SpillWorkload{MB: 32},
				Assert: with(
					Assertion{Metric: "sponge_candidates_blacklisted_total", Op: ">=", Value: 1},
					Assertion{Metric: `sponge_retries_total{op="alloc"}`, Op: ">=", Value: 1},
				),
			},
			{
				Name: "partition-mid-job",
				Desc: "task node partitioned from half the cluster mid-write, healed before the reads; output digest-equal",
				// Pools sized so the spill spans all three children: the
				// partitioned pair holds real chunks when the cut lands.
				Spec: Spec{Nodes: 3, PoolChunks: 8},
				Faults: []FaultEvent{
					{Phase: PhaseMidWrite, Op: OpPartition, A: []int{0}, B: []int{2, 3}},
					{Phase: PhasePostWrite, Op: OpHeal, A: []int{0}, B: []int{2, 3}},
				},
				Workload: SpillWorkload{MB: 24},
				Assert: with(
					Assertion{Metric: "sponge_fault_blocked_total", Op: ">=", Value: 1},
				),
			},
			{
				Name:     "readahead-under-loss",
				Desc:     "deep readahead window over a 15% lossy transport; retries fill the window",
				Spec:     Spec{Nodes: 3, DropRate: 0.15, ReadAhead: 8},
				Workload: SpillWorkload{MB: 24},
				Assert: with(
					Assertion{Metric: "sponge_fault_drops_total", Op: ">=", Value: 1},
					Assertion{Metric: `sponge_retries_total{op="read"}`, Op: ">=", Value: 1},
				),
			},
			{
				Name: "drop-ramp-recovery",
				Desc: "drop rate ramps to 40% mid-write and back to zero before the reads",
				Spec: Spec{Nodes: 3},
				Faults: []FaultEvent{
					{Phase: PhaseMidWrite, Op: OpDropRate, Rate: 0.4},
					{Phase: PhasePostWrite, Op: OpDropRate, Rate: 0},
				},
				Workload: SpillWorkload{MB: 24},
				Assert: with(
					Assertion{Metric: "sponge_fault_drops_total", Op: ">=", Value: 1},
				),
			},
			{
				Name:     "combine-overflow-under-drops",
				Desc:     "node-combine wordcount whose shared buffer overflows through the sponge while 5% of exchanges drop",
				Spec:     Spec{Nodes: 3, DropRate: 0.05},
				Workload: WordCountWorkload{NodeCombine: true},
				Assert: with(
					Assertion{Metric: "mr_node_combine_overflow_total", Op: ">=", Value: 1},
					Assertion{Metric: `mr_node_combine_tasks_total{path="published"}`, Op: ">=", Value: 1},
					Assertion{Metric: "sponge_fault_drops_total", Op: ">=", Value: 1},
				),
			},
			{
				Name: "fd-revocation-fallback",
				Desc: "unix-socket tier with fd passing; a peer's cached client and fds revoked mid-read, reads re-negotiate",
				Spec: Spec{Nodes: 3, UnixSockets: true},
				Faults: []FaultEvent{
					{Phase: PhaseMidRead, Op: OpRevokePeer, Node: 1},
					{Phase: PhaseMidRead, Op: OpRevokePeer, Node: 2},
					{Phase: PhaseMidRead, Op: OpRevokePeer, Node: 3},
				},
				Workload: SpillWorkload{MB: 16},
				Assert: with(
					Assertion{Metric: `sponge_transport_tier_total{tier="unix"}`, Op: ">=", Value: 1},
					Assertion{Metric: "sponge_transport_peer_revocations_total", Op: ">=", Value: 1},
				),
			},
			{
				Name:     "pig-domain-count-sponge",
				Desc:     "algebraic Pig domain count with node combining; fold output spills through the sponge",
				Spec:     Spec{Nodes: 3},
				Workload: PigWorkload{},
				Assert: with(
					Assertion{Metric: `mr_node_combine_tasks_total{path="published"}`, Op: ">=", Value: 1},
				),
			},
			{
				Name:     "wordcount-under-drops",
				Desc:     "plain wordcount with sponge-backed spills while 10% of exchanges drop; counts stay exact",
				Spec:     Spec{Nodes: 3, DropRate: 0.1},
				Workload: WordCountWorkload{},
				Assert: with(
					Assertion{Metric: "sponge_fault_exchanges_total", Op: ">=", Value: 1},
				),
			},
		},
	}
}
