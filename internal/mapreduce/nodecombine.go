package mapreduce

import (
	"bytes"
	"fmt"

	"spongefiles/internal/cluster"
	"spongefiles/internal/obs"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
)

// The node-combine stage: map tasks on one node publish their sorted,
// task-combined partitions into a shared per-node buffer instead of
// writing their own map output. The buffer merges co-located segments
// per reduce partition and re-runs the combiner across tasks before the
// merged output is written and registered for shuffle, so the shuffle
// carries one copy of each hot key per node instead of per task (the
// in-node combining of Lee et al.). When the buffer overflows its
// capacity the combined content spills through the job's spill.Factory
// — with a sponge factory the overflow is absorbed by distributed
// memory instead of stalling mappers — and the spilled runs rejoin the
// final merge at flush. A task finishing more than nodeCombineLinger
// after the node's most recent publish finds the buffer closed and
// bypasses to the stock per-task output path, so a straggler never
// blocks the node.

// NodeCombineStats summarises a job's node-combine activity; zero when
// the stage is off.
type NodeCombineStats struct {
	// Published and Bypassed count map tasks by delivery path; bypassed
	// tasks wrote stock per-task output because their node's buffer had
	// already flushed (closed) or their publish came past the linger
	// window (late).
	Published      int64
	BypassedLate   int64
	BypassedClosed int64
	// RecordsIn/BytesIn are the task-combined segments entering the
	// shared buffers; RecordsOut/BytesOut the merged, re-combined node
	// outputs that actually shuffled. In-minus-out bytes is the shuffle
	// volume the stage saved.
	RecordsIn, RecordsOut int64
	BytesIn, BytesOut     int64
	// Overflows counts buffer-capacity spill events; the overflow runs
	// went through the job's spill factory.
	Overflows int64
	// Flushes counts buffer flushes by trigger: the linger timer or the
	// end-of-map-phase barrier.
	LingerFlushes, BarrierFlushes int64
	// FlushFailures counts flushes that lost spilled overflow (for
	// example a sponge chunk lost to a machine failure); the published
	// tasks were re-enqueued and re-ran through the stock path.
	FlushFailures int64
	// Spill aggregates the overflow targets' activity (real bytes,
	// sponge chunks) across nodes.
	SpillBytesReal int64
	SpillChunks    int64
}

// SavedBytes is the shuffle volume the stage removed, in real bytes.
func (s NodeCombineStats) SavedBytes() int64 { return s.BytesIn - s.BytesOut }

// ncMetrics is the stage's obs instrumentation; every handle is
// resolved once at job start so the publish hot path does no lookups.
type ncMetrics struct {
	recsIn, recsOut   *obs.Counter
	bytesIn, bytesOut *obs.Counter
	saved             *obs.Counter
	published         *obs.Counter
	bypassLate        *obs.Counter
	bypassClosed      *obs.Counter
	overflow          *obs.Counter
	flushLinger       *obs.Counter
	flushBarrier      *obs.Counter
	flushFail         *obs.Counter
	occupancy         *obs.Gauge
}

func newNCMetrics(reg *obs.Registry) ncMetrics {
	return ncMetrics{
		recsIn:       reg.Counter("mr_node_combine_records_total", obs.L("dir", "in")),
		recsOut:      reg.Counter("mr_node_combine_records_total", obs.L("dir", "out")),
		bytesIn:      reg.Counter("mr_node_combine_bytes_total", obs.L("dir", "in")),
		bytesOut:     reg.Counter("mr_node_combine_bytes_total", obs.L("dir", "out")),
		saved:        reg.Counter("mr_node_combine_shuffle_saved_bytes_total"),
		published:    reg.Counter("mr_node_combine_tasks_total", obs.L("path", "published")),
		bypassLate:   reg.Counter("mr_node_combine_tasks_total", obs.L("path", "bypass_late")),
		bypassClosed: reg.Counter("mr_node_combine_tasks_total", obs.L("path", "bypass_closed")),
		overflow:     reg.Counter("mr_node_combine_overflow_total"),
		flushLinger:  reg.Counter("mr_node_combine_flush_total", obs.L("trigger", "linger")),
		flushBarrier: reg.Counter("mr_node_combine_flush_total", obs.L("trigger", "barrier")),
		flushFail:    reg.Counter("mr_node_combine_flush_failures_total"),
		occupancy:    reg.Gauge("mr_node_combine_occupancy_bytes"),
	}
}

// jobCombine is one job's node-combine state: a combiner per node that
// received at least one publish, plus the end-of-map-phase barrier.
type jobCombine struct {
	eng *Engine
	rj  *runningJob
	m   ncMetrics
	// byNode is indexed by node ID, nil until the node's first publish;
	// the barrier walks it in node order.
	byNode []*nodeCombiner
	// barrier counts outstanding end-of-phase flush processes; the last
	// one to finish enqueues the reduce phase.
	barrier int
}

func newJobCombine(eng *Engine, rj *runningJob) *jobCombine {
	reg := rj.conf.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &jobCombine{
		eng:    eng,
		rj:     rj,
		m:      newNCMetrics(reg),
		byNode: make([]*nodeCombiner, len(eng.C.Nodes)),
	}
}

// publishedTask records one absorbed map output, enough to re-enqueue
// the task if the buffer's spilled overflow is later lost.
type publishedTask struct {
	split   int
	attempt int
}

// nodeCombiner is the shared combine buffer of one node for one job.
type nodeCombiner struct {
	jc   *jobCombine
	node *cluster.Node

	open     bool // accepting publishes
	flushing bool
	flushed  bool
	poisoned bool // a flush failed; stay closed forever
	// publishing counts publishes mid-flight (sleeping on copy or
	// overflow-spill charges); the linger timer never flushes under one.
	publishing int
	// deadline is the linger window's close: the most recent publish
	// plus nodeCombineLinger. The timer process re-checks on wake, so
	// publishes slide the window.
	deadline simtime.Time

	published []publishedTask
	// parts holds the buffered task segments per reduce partition;
	// bufBytes is their total real size against capReal; totalIn is the
	// lifetime publish volume (buffered + already spilled).
	parts    [][][]byte
	bufBytes int
	totalIn  int64
	capReal  int
	// overflow spill state: one target per combiner, runs per partition.
	target spill.Target
	runs   [][]spill.File
	// The combiner's scratch: the staging buffer its merges write and
	// combine through, and the read buffers of its runs.
	stage []byte
	bufs  readBufs

	done *simtime.Signal // broadcast when a flush completes
}

// combinerFor returns (creating on first publish) the node's combiner.
func (jc *jobCombine) combinerFor(p *simtime.Proc, node *cluster.Node) *nodeCombiner {
	if nc := jc.byNode[node.ID]; nc != nil {
		return nc
	}
	conf := &jc.rj.conf
	nc := &nodeCombiner{
		jc:       jc,
		node:     node,
		open:     true,
		deadline: p.Now().Add(nodeCombineLinger),
		parts:    make([][][]byte, conf.NumReducers),
		runs:     make([][]spill.File, conf.NumReducers),
		capReal:  node.RealOf(conf.NodeCombineVirtual),
		done:     simtime.NewSignal(fmt.Sprintf("nodecombine.%s.node%d", conf.Name, node.ID)),
	}
	jc.byNode[node.ID] = nc
	// The linger timer closes and flushes the buffer once no publish
	// has arrived for a full window. It re-checks the (sliding)
	// deadline on every wake, so it fires exactly once.
	jc.eng.C.Sim.Spawn(fmt.Sprintf("nodecombine.linger.%s.node%d", conf.Name, node.ID),
		func(p *simtime.Proc) {
			for {
				if nc.flushed || nc.flushing {
					return // the barrier (or an earlier wake) owns the flush
				}
				now := p.Now()
				if now >= nc.deadline && nc.publishing == 0 {
					jc.m.flushLinger.Inc()
					jc.rj.result.NodeCombine.LingerFlushes++
					nc.flush(p)
					return
				}
				d := nc.deadline.Sub(now)
				if d <= 0 {
					// A publish is mid-flight past the deadline; re-check
					// shortly (it extends the deadline when it lands).
					d = simtime.Millisecond
				}
				p.Sleep(d)
			}
		})
	return nc
}

// publish offers a finished map task's sorted, task-combined partitions
// to the node's shared buffer. It reports false when the task must fall
// back to the stock per-task output path (buffer closed, or the publish
// arrived past the linger window).
func (jc *jobCombine) publish(ctx *TaskContext, split int, segs [][]byte) bool {
	nc := jc.combinerFor(ctx.P, ctx.Node)
	stats := &jc.rj.result.NodeCombine
	if !nc.open || nc.flushing || nc.flushed {
		jc.m.bypassClosed.Inc()
		stats.BypassedClosed++
		return false
	}
	if ctx.P.Now() > nc.deadline {
		// The window has lapsed but the timer has not run yet at this
		// instant; the task is a straggler and must not reopen it.
		jc.m.bypassLate.Inc()
		stats.BypassedLate++
		return false
	}

	// The buffer stays open while this publish sleeps on its copy and
	// overflow-spill charges: the linger timer must not flush under it.
	nc.publishing++
	defer func() { nc.publishing-- }()

	incoming := 0
	records := int64(0)
	for _, seg := range segs {
		incoming += len(seg)
		records += countRecords(seg)
	}
	// Overflow: spill the buffered, combined content through the spill
	// factory before accepting more, so the buffer never exceeds its
	// capacity and the publisher (not the whole node) absorbs the cost.
	if nc.bufBytes > 0 && nc.bufBytes+incoming > nc.capReal {
		jc.m.overflow.Inc()
		stats.Overflows++
		nc.spillBuffered(ctx)
	}
	// The publish itself is one memory copy into the shared buffer.
	ctx.Node.ChargeCopy(ctx.P, incoming)
	for part, seg := range segs {
		if len(seg) == 0 {
			continue
		}
		nc.parts[part] = append(nc.parts[part], seg)
	}
	nc.bufBytes += incoming
	nc.totalIn += int64(incoming)
	nc.deadline = ctx.P.Now().Add(nodeCombineLinger)
	nc.published = append(nc.published, publishedTask{split: split, attempt: ctx.run.Attempt})

	jc.m.published.Inc()
	jc.m.recsIn.Add(records)
	jc.m.bytesIn.Add(int64(incoming))
	jc.m.occupancy.Add(int64(incoming))
	stats.Published++
	stats.RecordsIn += records
	stats.BytesIn += int64(incoming)

	// The publisher's own mapOut slot gets an empty placeholder so the
	// shuffle loop sees every split; the merged output registers under
	// the first publisher's slot at flush.
	jc.rj.mapOut[split] = &mapOutput{node: ctx.Node, parts: make([][]byte, ctx.Conf.NumReducers)}
	ctx.run.OutputReal = 0
	return true
}

// spillBuffered merges and combines the buffered segments per partition
// and writes them as sorted runs through the job's spill factory,
// emptying the in-memory buffer. Charged to the publishing task.
func (nc *nodeCombiner) spillBuffered(ctx *TaskContext) {
	conf := ctx.Conf
	if nc.target == nil {
		nc.target = conf.SpillFactory(nc.node)
	}
	for part, segs := range nc.parts {
		if len(segs) == 0 {
			continue
		}
		streams := make([]recordStream, len(segs))
		for i, seg := range segs {
			streams[i] = newMemStream(seg)
		}
		f := nc.target.Create(ctx.P, fmt.Sprintf("%s-nc%d-run%d-p%d",
			conf.Name, nc.node.ID, len(nc.runs[part]), part))
		if err := writeMerged(ctx, f, streams, 0, conf.Combine, &nc.stage); err != nil {
			panic(err) // surfaces as the publishing task's failure
		}
		nc.runs[part] = append(nc.runs[part], f)
		nc.parts[part] = nc.parts[part][:0]
	}
	nc.jc.m.occupancy.Add(-int64(nc.bufBytes))
	nc.bufBytes = 0
}

// ensureFlushed drives the combiner to the flushed state from the
// barrier: it runs the flush itself, or waits for one in progress.
func (nc *nodeCombiner) ensureFlushed(p *simtime.Proc) {
	for !nc.flushed {
		if nc.flushing {
			nc.done.Wait(p)
			continue
		}
		nc.jc.m.flushBarrier.Inc()
		nc.jc.rj.result.NodeCombine.BarrierFlushes++
		nc.flush(p)
	}
}

// flush closes the buffer, merges the in-memory segments with any
// spilled overflow runs per partition, re-runs the combiner across
// tasks, writes the merged node output, and registers it for shuffle.
// On failure (spilled overflow lost) the published tasks re-enqueue.
func (nc *nodeCombiner) flush(p *simtime.Proc) {
	nc.open = false
	nc.flushing = true
	err := nc.doFlush(p)
	nc.flushing = false
	nc.flushed = true
	if err != nil {
		nc.poisoned = true
		nc.jc.flushFailed(nc, err)
	}
	nc.done.Broadcast()
}

func (nc *nodeCombiner) doFlush(p *simtime.Proc) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("node combine flush: %w", e)
			} else {
				err = fmt.Errorf("node combine flush panic: %v", r)
			}
		}
	}()
	jc := nc.jc
	conf := &jc.rj.conf
	if len(nc.published) == 0 {
		return nil // nothing was absorbed; nothing to register
	}
	ctx := &TaskContext{P: p, Node: nc.node, Conf: conf, run: &TaskRun{}}
	segs := make([][]byte, conf.NumReducers)
	var total, records int64
	for part := range nc.parts {
		var streams []recordStream
		for _, seg := range nc.parts[part] {
			streams = append(streams, newMemStream(seg))
		}
		for _, f := range nc.runs[part] {
			streams = append(streams, nc.bufs.open(f))
		}
		if len(streams) == 0 {
			continue
		}
		seg := combineStreams(ctx, conf, streams, &nc.stage)
		nc.bufs.recycle(streams)
		segs[part] = seg
		total += int64(len(seg))
		records += countRecords(seg)
	}
	ctx.FlushCPU()
	// Write the merged node output to local disk and register it for
	// shuffle under the first publisher's slot (the other publishers
	// keep their empty placeholders).
	stream := nc.node.Disk.NewStream()
	if total > 0 {
		nc.node.WriteFile(p, stream, int(total))
	}
	anchor := nc.published[0].split
	jc.rj.mapOut[anchor] = &mapOutput{node: nc.node, stream: stream, parts: segs}
	for _, f := range nc.runsAll() {
		f.Delete(p)
	}
	nc.closeTarget()

	jc.m.occupancy.Add(-int64(nc.bufBytes))
	nc.bufBytes = 0
	nc.parts = nil
	jc.m.recsOut.Add(records)
	jc.m.bytesOut.Add(total)
	stats := &jc.rj.result.NodeCombine
	stats.RecordsOut += records
	stats.BytesOut += total
	if saved := nc.totalIn - total; saved > 0 {
		jc.m.saved.Add(saved)
	}
	return nil
}

func (nc *nodeCombiner) runsAll() []spill.File {
	var all []spill.File
	for _, rs := range nc.runs {
		all = append(all, rs...)
	}
	return all
}

// closeTarget folds the overflow target's spill stats into the job's
// node-combine stats and releases it.
func (nc *nodeCombiner) closeTarget() {
	if nc.target == nil {
		return
	}
	st := nc.target.Stats()
	stats := &nc.jc.rj.result.NodeCombine
	stats.SpillBytesReal += st.BytesReal
	stats.SpillChunks += st.Chunks
	nc.target.Close()
	nc.target = nil
}

// flushFailed handles a lost flush (spilled overflow unreadable): the
// absorbed map outputs are gone, so their tasks re-enqueue as fresh
// attempts — the framework's stock recovery path — and the combiner
// stays closed so the retries take the per-task route.
func (jc *jobCombine) flushFailed(nc *nodeCombiner, err error) {
	rj := jc.rj
	jc.m.flushFail.Inc()
	rj.result.NodeCombine.FlushFailures++
	jc.m.occupancy.Add(-int64(nc.bufBytes))
	nc.bufBytes = 0
	nc.parts = nil
	nc.closeTarget()
	meta := jc.eng.FS.Lookup(rj.conf.Input.File)
	for _, pub := range nc.published {
		rj.mapOut[pub.split] = nil
		attempt := pub.attempt + 1
		if attempt >= maxAttempts {
			rj.failed = true
			continue
		}
		rj.pending = append(rj.pending, &pendingTask{
			kind: MapTask, index: pub.split, attempt: attempt,
			preferred: meta.Blocks[pub.split].Replicas,
		})
		rj.mapsLeft++
	}
	nc.published = nil
	jc.eng.kick()
}

// flushPending starts the end-of-map-phase barrier: every combiner not
// yet flushed gets a flush process, and the last one to finish enqueues
// the reduce phase (unless a flush failure re-opened the map phase).
// It reports false when nothing is pending and the caller may enqueue
// reduces directly.
func (jc *jobCombine) flushPending(e *Engine) bool {
	var pending []*nodeCombiner
	for _, nc := range jc.byNode {
		if nc != nil && !nc.flushed {
			pending = append(pending, nc)
		}
	}
	if len(pending) == 0 {
		return false
	}
	jc.barrier = len(pending)
	for _, nc := range pending {
		nc := nc
		e.C.Sim.Spawn(fmt.Sprintf("nodecombine.flush.%s.node%d", jc.rj.conf.Name, nc.node.ID),
			func(p *simtime.Proc) {
				nc.ensureFlushed(p)
				jc.barrier--
				if jc.barrier == 0 {
					// A flush failure re-enqueued map tasks; the next
					// mapsLeft==0 re-runs the barrier.
					if jc.rj.mapsLeft == 0 && !jc.rj.failed && !jc.rj.cancelled {
						e.enqueueReduces(jc.rj)
					}
					e.kick()
				}
			})
	}
	return true
}

// combineStreams merges the sorted streams and re-runs the combiner
// over the merged record flow, returning the combined serialized
// segment, exact-size: the records collect in *stage, the caller's
// scratch, and are copied out once. CPU is charged per record for the
// merge comparisons and the combiner's per-record cost.
func combineStreams(ctx *TaskContext, conf *JobConf, streams []recordStream, stage *[]byte) []byte {
	m := newMergeStream(streams)
	out := (*stage)[:0]
	var g grouper
	var vi ValueIter
	eachGroup(ctx, &g, &vi, m, func(k, v []byte) { ctx.ChargeCPU(perRecord + m.cmp) }, conf.Combine,
		func(k, v []byte) { out = appendRecord(out, k, v) }, nil)
	*stage = out[:0]
	return bytes.Clone(out)
}
