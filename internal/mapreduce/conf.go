package mapreduce

import (
	"spongefiles/internal/cluster"
	"spongefiles/internal/media"
	"spongefiles/internal/obs"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
)

// RecordGen produces one split's records by calling emit for each.
// Generators must be deterministic per split, and the records' virtual
// sizes should sum to roughly the split size (the reader charges I/O by
// record bytes and tops up to the full split at the end).
type RecordGen func(emit Emit)

// Input describes a job's input: a DFS file (whose blocks become map
// splits) and an optional record generator per split index. A nil
// MakeRecords means the split is scanned for I/O and CPU cost only — the
// background grep job uses this, since its 1 TB input exists to generate
// disk load, not data.
type Input struct {
	File        string
	MakeRecords func(split int) RecordGen
}

// The engine's compute-cost constants, calibrated roughly to the
// paper's testbed (2.5 GHz Xeon running Java): the background grep's
// 128 MB map tasks take ~15 s, which puts the effective map scan rate
// near 8-10 MB/s. Rates are in virtual bytes per second.
const (
	// mapRate and reduceRate convert processed virtual bytes to time in
	// the user map/reduce functions.
	mapRate    = 9 * media.MB
	reduceRate = 40 * media.MB
	// perRecord is the framework's fixed per-record overhead.
	perRecord = 1 * simtime.Microsecond
	// compareCost is one key comparison during sort or merge.
	compareCost = 250 * simtime.Nanosecond
)

// The engine's Hadoop constants. Nothing runs with other values.
const (
	// mergeFactor is io.sort.factor (10): when more than this many
	// on-disk runs exist, reduce-side merging happens in multiple rounds
	// — unless the spill target is remote memory, where merging needs no
	// seek avoidance and runs in a single round regardless (§4.2.3,
	// Figure 6 discussion).
	mergeFactor = 10
	// mergeMemFraction is the reduce heap fraction holding shuffled
	// segments (mapred.job.shuffle.input.buffer.percent, 0.7).
	mergeMemFraction = 0.7
	// maxAttempts bounds task attempts: a task failing this many times
	// fails the job.
	maxAttempts = 4
	// nodeCombineLinger is how long a node's shared combine buffer stays
	// open after the node's most recent publish. A map task finishing
	// after the window closed bypasses to the stock per-task output path,
	// so a straggler never blocks the node's combined output.
	nodeCombineLinger = 60 * simtime.Second
)

// JobConf describes one job.
type JobConf struct {
	Name  string
	Input Input
	Map   MapFunc
	// Combine, when set, runs over each map-side sorted segment before
	// it is spilled or shipped (Hadoop's combiner): it sees each key's
	// values grouped and emits a reduced record stream, cutting shuffle
	// and spill volume for algebraic aggregations.
	Combine     ReduceFunc
	Reduce      ReduceFunc // nil = map-only job
	NumReducers int

	// Partition routes a key to a reducer; nil = FNV hash.
	Partition func(key []byte, n int) int

	// SortBufferVirtual is the map-side sort buffer (io.sort.mb; the
	// paper's default is 128 MB).
	SortBufferVirtual int64
	// ReduceInMemory runs the reduce with its whole heap as merge
	// memory and keeps the merged input in memory for the reduce
	// function (Figure 6's no-spill baseline). Off, the default Hadoop
	// configuration: mergeMemFraction of the heap holds shuffled
	// segments, and everything is spilled again after the merge
	// (§2.1.2).
	ReduceInMemory bool

	// SpillFactory builds the reduce-side (and Pig) spill target per
	// task; map-side spills always use the local disk, as in the
	// paper's integration.
	SpillFactory spill.Factory

	// NodeCombine opts into the per-node shared combine stage: map
	// tasks on the same node publish their sorted, task-combined
	// partitions into one shared buffer that merges co-located segments
	// per reduce partition and re-runs the combiner across tasks before
	// shuffle, so the shuffle carries one copy of each hot key per node
	// instead of per task (in-node combining, Lee et al.). Requires
	// Combine and Reduce; ignored otherwise. Default off: the stock
	// per-task path stays bit-identical.
	NodeCombine bool
	// NodeCombineVirtual caps the shared buffer per node (virtual
	// bytes; default 128 MB). On overflow the buffered, combined data
	// spills through SpillFactory — with a sponge factory the overflow
	// lands in distributed memory instead of stalling mappers.
	NodeCombineVirtual int64

	// Metrics, when non-nil, receives the engine's node-combine
	// instrumentation (mr_node_combine_* series). Nil gives the job a
	// private registry; simulated results are identical either way.
	Metrics *obs.Registry
}

// Defaults fills unset fields with the paper's Hadoop configuration.
func (c *JobConf) Defaults() {
	if c.NumReducers <= 0 {
		c.NumReducers = 1
	}
	if c.Partition == nil {
		c.Partition = HashPartition
	}
	if c.SortBufferVirtual <= 0 {
		c.SortBufferVirtual = 128 * media.MB
	}
	if c.SpillFactory == nil {
		c.SpillFactory = spill.DiskFactory()
	}
	if c.NodeCombine && (c.Combine == nil || c.Reduce == nil) {
		// Without a combiner there is nothing to fold across tasks, and
		// without a reduce there is no shuffle to shrink.
		c.NodeCombine = false
	}
	if c.NodeCombine && c.NodeCombineVirtual <= 0 {
		c.NodeCombineVirtual = 128 * media.MB
	}
}

// HashPartition is the default partitioner: 32-bit FNV-1a of the key,
// modulo n. The hash is written out here because hash/fnv's, reached
// through an interface, costs an allocation per record.
func HashPartition(key []byte, n int) int {
	h := uint32(2166136261)
	for _, c := range key {
		h = (h ^ uint32(c)) * 16777619
	}
	return int(h % uint32(n))
}

// TaskContext is handed to map and reduce functions. It batches CPU
// charges so per-record costs do not flood the event queue.
type TaskContext struct {
	P     *simtime.Proc
	Node  *cluster.Node
	Conf  *JobConf
	Spill spill.Target

	cpuDebt simtime.Duration
	run     *TaskRun
}

// Count bumps a named job counter (Hadoop's user counters); counters
// from every successful attempt are aggregated into the JobResult.
func (c *TaskContext) Count(name string, delta int64) {
	if c.run.Counters == nil {
		c.run.Counters = make(map[string]int64)
	}
	c.run.Counters[name] += delta
}

// cpuFlushAt bounds how much CPU debt accumulates before sleeping.
const cpuFlushAt = simtime.Millisecond

// ChargeCPU accrues compute time, sleeping once enough has accumulated.
func (c *TaskContext) ChargeCPU(d simtime.Duration) {
	c.cpuDebt += d
	if c.cpuDebt >= cpuFlushAt {
		c.P.Sleep(c.cpuDebt)
		c.cpuDebt = 0
	}
}

// FlushCPU settles any outstanding CPU debt.
func (c *TaskContext) FlushCPU() {
	if c.cpuDebt > 0 {
		c.P.Sleep(c.cpuDebt)
		c.cpuDebt = 0
	}
}

// chargeBytes charges rate-based compute for n real bytes.
func (c *TaskContext) chargeBytes(n int, rate int64) {
	v := c.Node.Scale() * int64(n)
	c.ChargeCPU(simtime.Duration(float64(v) / float64(rate) * float64(simtime.Second)))
}

// Run exposes the task's accounting record (input bytes, spills, times).
func (c *TaskContext) Run() *TaskRun { return c.run }
