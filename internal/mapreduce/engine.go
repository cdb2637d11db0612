package mapreduce

import (
	"fmt"

	"spongefiles/internal/cluster"
	"spongefiles/internal/dfs"
	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
)

// TaskKind distinguishes map from reduce attempts.
type TaskKind int

// Task kinds.
const (
	MapTask TaskKind = iota
	ReduceTask
)

func (k TaskKind) String() string {
	if k == MapTask {
		return "map"
	}
	return "reduce"
}

// TaskRun records one task attempt for the evaluation harness.
type TaskRun struct {
	Kind         TaskKind
	Index        int
	Attempt      int
	Node         int
	Start, End   simtime.Time
	InputVirtual int64
	InputRecords int64
	OutputReal   int64
	SpillEvents  int
	MergeRounds  int
	Spill        spill.Stats
	Counters     map[string]int64
	Err          error
}

// Duration returns the attempt's runtime.
func (t *TaskRun) Duration() simtime.Duration { return t.End.Sub(t.Start) }

// JobResult is a finished job's record.
type JobResult struct {
	Name       string
	Start, End simtime.Time
	Tasks      []*TaskRun
	Failed     bool
	// NodeCombine summarises the node-combine stage's activity; zero
	// unless JobConf.NodeCombine was on.
	NodeCombine NodeCombineStats
}

// Counters aggregates the named counters of every successful attempt,
// plus the framework's own: records and virtual bytes in and out per
// phase, spill events, and bytes spilled.
func (r *JobResult) Counters() map[string]int64 {
	out := map[string]int64{}
	for _, t := range r.Tasks {
		if t.Err != nil {
			continue
		}
		prefix := t.Kind.String()
		out[prefix+".tasks"]++
		out[prefix+".input.records"] += t.InputRecords
		out[prefix+".input.vbytes"] += t.InputVirtual
		out[prefix+".output.rbytes"] += t.OutputReal
		out[prefix+".spill.events"] += int64(t.SpillEvents)
		out[prefix+".spill.rbytes"] += t.Spill.BytesReal
		out[prefix+".spill.chunks"] += t.Spill.Chunks
		for name, v := range t.Counters {
			out[name] += v
		}
	}
	return out
}

// Duration returns the job's makespan.
func (r *JobResult) Duration() simtime.Duration { return r.End.Sub(r.Start) }

// ReduceRuns returns the successful reduce attempts.
func (r *JobResult) ReduceRuns() []*TaskRun {
	var out []*TaskRun
	for _, t := range r.Tasks {
		if t.Kind == ReduceTask && t.Err == nil {
			out = append(out, t)
		}
	}
	return out
}

// Straggler returns the longest-running successful reduce attempt (the
// task the paper's Table 2 reports), or nil.
func (r *JobResult) Straggler() *TaskRun {
	var best *TaskRun
	for _, t := range r.ReduceRuns() {
		if best == nil || t.Duration() > best.Duration() {
			best = t
		}
	}
	return best
}

// mapOutput is one finished map task's registered output: the final
// sorted, partitioned file on the mapper's local disk.
type mapOutput struct {
	node   *cluster.Node
	stream media.StreamID
	parts  [][]byte
}

// Job is a submitted job's handle.
type Job struct {
	eng       *Engine
	rj        *runningJob
	done      *simtime.Signal
	completed bool
	result    *JobResult
}

// Wait blocks the calling process until the job completes and returns
// its result.
func (j *Job) Wait(p *simtime.Proc) *JobResult {
	for !j.completed {
		j.done.Wait(p)
	}
	return j.result
}

// Result returns the result if the job has completed, else nil.
func (j *Job) Result() *JobResult {
	if !j.completed {
		return nil
	}
	return j.result
}

// Cancel stops dispatching the job's remaining tasks; running attempts
// finish. A cancelled job completes with Failed set unless it had
// already finished.
func (j *Job) Cancel() {
	j.rj.cancelled = true
	j.eng.kick()
}

// pendingTask is a task waiting for a slot.
type pendingTask struct {
	kind    TaskKind
	index   int
	attempt int
	// preferred nodes for locality (map tasks: block replicas).
	preferred []int
}

// runningJob is the engine's internal job state.
type runningJob struct {
	conf      JobConf
	job       *Job
	mapOut    []*mapOutput
	pending   []*pendingTask
	running   int
	mapsLeft  int
	redsLeft  int
	cancelled bool
	failed    bool
	started   bool
	result    *JobResult
	// nc is the node-combine stage, nil unless conf.NodeCombine.
	nc *jobCombine
	// sortBufs are sort buffers of finished map tasks, never more than
	// there are map tasks in pending; see putSortBuffer.
	sortBufs []*sortBuffer
}

// Engine is the cluster's MapReduce runtime: a FIFO scheduler (jobs get
// slots in submission order, so a background job soaks up whatever the
// foreground job leaves idle, as in §4.2.3) plus the task machinery.
type Engine struct {
	C  *cluster.Cluster
	FS *dfs.DFS

	// kicks counts the scheduling passes asked for — by a submission, a
	// finished task, a cancellation, a dead node — that schedule, the
	// daemon callback the first of them scheduled, has yet to make.
	kicks      int
	scheduleFn func() // schedule, bound once: a kick allocates nothing
	jobs       []*runningJob
	freeMap    []int
	freeReduce []int
	deadNode   []bool
	taskSeq    int
}

// NewEngine starts a MapReduce runtime on the cluster. Its scheduler
// holds no process: each kick schedules a daemon callback.
func NewEngine(c *cluster.Cluster, fs *dfs.DFS) *Engine {
	e := &Engine{
		C:          c,
		FS:         fs,
		freeMap:    make([]int, len(c.Nodes)),
		freeReduce: make([]int, len(c.Nodes)),
		deadNode:   make([]bool, len(c.Nodes)),
	}
	for i := range c.Nodes {
		e.freeMap[i] = c.Cfg.MapSlots
		e.freeReduce[i] = cluster.ReduceSlots
	}
	e.scheduleFn = e.schedule
	return e
}

// Submit enqueues a job. The input file must already exist in the DFS;
// one map task is created per block.
func (e *Engine) Submit(conf JobConf) *Job {
	conf.Defaults()
	meta := e.FS.Lookup(conf.Input.File)
	if meta == nil {
		panic("mapreduce: input file missing: " + conf.Input.File)
	}
	rj := &runningJob{
		conf:     conf,
		mapOut:   make([]*mapOutput, len(meta.Blocks)),
		mapsLeft: len(meta.Blocks),
		redsLeft: 0,
		result:   &JobResult{Name: conf.Name, Start: e.C.Sim.Now()},
	}
	if conf.Reduce != nil {
		rj.redsLeft = conf.NumReducers
	}
	if conf.NodeCombine {
		rj.nc = newJobCombine(e, rj)
	}
	for i, b := range meta.Blocks {
		rj.pending = append(rj.pending, &pendingTask{kind: MapTask, index: i, preferred: b.Replicas})
	}
	j := &Job{eng: e, rj: rj, done: simtime.NewSignal("job." + conf.Name)}
	rj.job = j
	e.jobs = append(e.jobs, rj)
	e.kick()
	return j
}

// kick asks the scheduler for one dispatch pass. The first kick since
// the last pass schedules the daemon callback, at the current instant;
// later ones join it.
func (e *Engine) kick() {
	e.kicks++
	if e.kicks == 1 {
		e.C.Sim.AfterDaemon(0, e.scheduleFn)
	}
}

// schedule is the scheduler: it reacts to submissions and task
// completions by assigning pending tasks to free slots, jobs in
// submission order, preferring data-local nodes for map tasks — one
// dispatch pass per kick.
func (e *Engine) schedule() {
	for ; e.kicks > 0; e.kicks-- {
		e.dispatch()
	}
}

func (e *Engine) dispatch() {
	for _, rj := range e.jobs {
		if rj.cancelled || rj.failed {
			rj.pending = nil
			rj.sortBufs = nil
			e.maybeFinish(rj)
			continue
		}
		kept := rj.pending[:0]
		for _, t := range rj.pending {
			node := e.pickNode(t)
			if node < 0 {
				kept = append(kept, t)
				continue
			}
			e.launch(rj, t, node)
		}
		rj.pending = kept
	}
}

// MarkNodeDead removes a node from scheduling (a machine failure, as in
// §4.3's injection experiments). Attempts already running elsewhere that
// depended on the node's data fail on their own and are retried.
func (e *Engine) MarkNodeDead(node int) {
	if node >= 0 && node < len(e.deadNode) {
		e.deadNode[node] = true
	}
	e.kick()
}

// pickNode finds a free slot for the task: a preferred (data-local) node
// first, then the free node with the most slots available. Dead nodes
// never receive work.
func (e *Engine) pickNode(t *pendingTask) int {
	free := e.freeMap
	if t.kind == ReduceTask {
		free = e.freeReduce
	}
	for _, n := range t.preferred {
		if n < len(free) && free[n] > 0 && !e.deadNode[n] {
			return n
		}
	}
	best, bestFree := -1, 0
	for n, f := range free {
		if f > bestFree && !e.deadNode[n] {
			best, bestFree = n, f
		}
	}
	return best
}

func (e *Engine) launch(rj *runningJob, t *pendingTask, nodeID int) {
	if t.kind == MapTask {
		e.freeMap[nodeID]--
	} else {
		e.freeReduce[nodeID]--
	}
	rj.running++
	node := e.C.Nodes[nodeID]
	e.taskSeq++
	name := fmt.Sprintf("%s.%s%d.a%d", rj.conf.Name, t.kind, t.index, t.attempt)
	e.C.Sim.Spawn(name, func(p *simtime.Proc) {
		run := &TaskRun{
			Kind: t.kind, Index: t.index, Attempt: t.attempt,
			Node: nodeID, Start: p.Now(),
		}
		ctx := &TaskContext{P: p, Node: node, Conf: &rj.conf, run: run}
		var err error
		if t.kind == MapTask {
			ctx.Spill = spill.NewDiskTarget(node)
			var out [][]byte
			out, err = runMapTask(ctx, e, rj, t.index)
			_ = out
		} else {
			ctx.Spill = rj.conf.SpillFactory(node)
			err = runReduceTask(ctx, e, rj, t.index)
		}
		run.Spill = ctx.Spill.Stats()
		ctx.Spill.Close()
		run.End = p.Now()
		run.Err = err
		rj.result.Tasks = append(rj.result.Tasks, run)
		e.taskDone(rj, t, nodeID, err)
	})
}

// taskDone updates accounting and re-enqueues failed attempts.
func (e *Engine) taskDone(rj *runningJob, t *pendingTask, nodeID int, err error) {
	if t.kind == MapTask {
		e.freeMap[nodeID]++
	} else {
		e.freeReduce[nodeID]++
	}
	rj.running--
	switch {
	case err != nil && !rj.cancelled:
		t.attempt++
		if t.attempt >= maxAttempts {
			rj.failed = true
		} else {
			// The framework restarts failed tasks (the paper's recovery
			// path when a sponge chunk is lost, §3.1).
			rj.pending = append(rj.pending, t)
		}
	case t.kind == MapTask && err == nil:
		rj.mapsLeft--
		if rj.mapsLeft == 0 && rj.conf.Reduce != nil {
			// Maps complete. With node combining on, every node buffer
			// must flush (merging and registering its combined output)
			// before a reduce may shuffle; the barrier enqueues the
			// reduce phase itself once the last flush lands. Otherwise
			// enqueue the reduce phase directly.
			if rj.nc == nil || !rj.nc.flushPending(e) {
				e.enqueueReduces(rj)
			}
		}
	case t.kind == ReduceTask && err == nil:
		rj.redsLeft--
	}
	e.maybeFinish(rj)
	e.kick()
}

// enqueueReduces queues the job's reduce phase.
func (e *Engine) enqueueReduces(rj *runningJob) {
	for r := 0; r < rj.conf.NumReducers; r++ {
		rj.pending = append(rj.pending, &pendingTask{kind: ReduceTask, index: r})
	}
}

func (e *Engine) maybeFinish(rj *runningJob) {
	if rj.job.completed || rj.running > 0 {
		return
	}
	done := rj.mapsLeft == 0 && rj.redsLeft == 0
	stopped := (rj.failed || rj.cancelled) && len(rj.pending) == 0
	if !done && !stopped {
		return
	}
	rj.result.End = e.C.Sim.Now()
	rj.result.Failed = rj.failed || (rj.cancelled && !done)
	rj.job.result = rj.result
	rj.job.completed = true
	rj.job.done.Broadcast()
}
