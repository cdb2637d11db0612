package mapreduce

import (
	"fmt"
	"sort"

	"spongefiles/internal/spill"
)

// runReduceTask executes one reduce attempt: shuffle the partition from
// every map output, merge (spilling through the task's spill target),
// and stream the grouped records into the reduce function (§2.1.2).
func runReduceTask(ctx *TaskContext, eng *Engine, job *runningJob, part int) (err error) {
	// Output is written under an attempt-scoped name and only survives a
	// successful attempt (Hadoop's output-committer protocol): a failed
	// attempt's partial file must not collide with its retry.
	outName := fmt.Sprintf("/out/%s/part-%05d.a%d", job.conf.Name, part, ctx.run.Attempt)
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("reduce task: %w", e)
			} else {
				err = fmt.Errorf("reduce task panic: %v", r)
			}
		}
		if err != nil {
			eng.FS.Delete(outName)
		}
	}()
	conf := &job.conf
	p := ctx.P

	mergeMem := int64(float64(eng.C.Cfg.ReduceHeap) * mergeMemFraction)
	if conf.ReduceInMemory {
		mergeMem = eng.C.Cfg.ReduceHeap
	}
	mergeMemReal := ctx.Node.RealOf(mergeMem)

	var (
		inMem    [][]byte // shuffled segments currently in memory
		memUsed  int
		runs     []spill.File // spilled sorted runs
		runCount int
		// The task's scratch: the merges' staging buffer and the read
		// buffers of merged runs.
		stage []byte
		bufs  readBufs
	)

	// spillInMem merges the in-memory segments into one sorted run and
	// writes it through the spill target (the InMemoryMerger; unless
	// the reduce runs in memory everything shuffled passes through here,
	// per the paper's description of the default configuration).
	spillInMem := func() error {
		if len(inMem) == 0 {
			return nil
		}
		streams := make([]recordStream, len(inMem))
		for i, seg := range inMem {
			streams[i] = newMemStream(seg)
		}
		f := ctx.Spill.Create(p, fmt.Sprintf("%s-r%d-run%d", conf.Name, part, runCount))
		runCount++
		if err := writeMerged(ctx, f, streams, memUsed, nil, &stage); err != nil {
			return err
		}
		runs = append(runs, f)
		inMem = nil
		memUsed = 0
		ctx.run.SpillEvents++
		return nil
	}

	// Shuffle: fetch this partition's segment from every map output.
	for m := 0; m < len(job.mapOut); m++ {
		mo := job.mapOut[m]
		seg := mo.parts[part]
		if len(seg) == 0 {
			continue
		}
		// The mapper's disk serves the segment, then it crosses the
		// network (free when the map ran on this very node).
		mo.node.ReadFile(p, mo.stream, len(seg))
		eng.C.Transfer(p, mo.node, ctx.Node, len(seg))
		ctx.run.InputVirtual += ctx.Node.VirtualOf(len(seg))
		ctx.run.InputRecords += countRecords(seg)
		inMem = append(inMem, seg)
		memUsed += len(seg)
		if memUsed > mergeMemReal {
			if err := spillInMem(); err != nil {
				return err
			}
		}
	}

	var finalStreams []recordStream
	if !conf.ReduceInMemory {
		// Default Hadoop: merged inputs are spilled again before the
		// reduce consumes them.
		if err := spillInMem(); err != nil {
			return err
		}
	} else {
		for _, seg := range inMem {
			finalStreams = append(finalStreams, newMemStream(seg))
		}
	}

	// Multi-round merging: with more on-disk runs than mergeFactor, the
	// disk path merges rounds of runs into bigger runs to bound the
	// number of concurrently-read files (seek avoidance). Remote-memory
	// spills have no seeks to avoid, so the sponge path merges all runs
	// in a single round — this asymmetry is why the paper's median job
	// spills 16.1 GB via disk but only 10.3 GB via SpongeFiles (§4.2.3).
	singleRound := ctx.Spill.Stats().RemoteMode
	for !singleRound && len(runs) > mergeFactor {
		// Merge the mergeFactor smallest runs (Hadoop's policy).
		sort.Slice(runs, func(i, j int) bool { return runs[i].Size() < runs[j].Size() })
		batch := runs[:mergeFactor]
		streams := make([]recordStream, len(batch))
		size := 0
		for i, f := range batch {
			streams[i] = bufs.open(f)
			size += int(f.Size())
		}
		merged := ctx.Spill.Create(p, fmt.Sprintf("%s-r%d-run%d", conf.Name, part, runCount))
		runCount++
		// Intermediate merge rounds re-run the combiner (as Hadoop
		// does): without it, every round re-ships each hot key's
		// uncombined duplicates from all its source runs.
		if err := writeMerged(ctx, merged, streams, size, conf.Combine, &stage); err != nil {
			return err
		}
		bufs.recycle(streams)
		for _, f := range batch {
			f.Delete(p)
		}
		runs = append(runs[mergeFactor:], merged)
		ctx.run.MergeRounds++
	}

	for _, f := range runs {
		finalStreams = append(finalStreams, bufs.open(f))
	}

	// Final merge streams straight into the user's reduce function.
	merge := newMergeStream(finalStreams)
	out := eng.FS.Create(outName, ctx.Node)
	var outBuf []byte
	emit := func(k, v []byte) {
		outBuf = appendRecord(outBuf, k, v)
		if len(outBuf) >= streamBufReal {
			ctx.FlushCPU()
			out.Write(p, outBuf)
			outBuf = outBuf[:0]
		}
	}
	var g grouper
	var vi ValueIter
	eachGroup(ctx, &g, &vi, merge, func(k, v []byte) {
		ctx.ChargeCPU(perRecord + merge.cmp)
		ctx.chargeBytes(recSize(k, v), reduceRate)
	}, conf.Reduce, emit, nil)
	ctx.FlushCPU()
	if len(outBuf) > 0 {
		out.Write(p, outBuf)
	}
	out.Close()

	for _, f := range runs {
		f.Delete(p)
	}
	return nil
}

// streamBufSlack is what a pre-sized staging buffer holds beyond
// streamBufReal: the buffer is flushed by the record that takes it past
// streamBufReal, so it ends that much longer. A record bigger than the
// slack grows the buffer once.
const streamBufSlack = 4 << 10

// writeMerged streams a merge of the given sorted streams, size bytes in
// all, into f, charging merge CPU, and closes it. With a combiner, each
// key's values, now adjacent, are folded before the run is written, so
// re-merged runs ship combined records instead of per-source duplicates
// (Hadoop re-combines during intermediate merges the same way). The
// writes are staged in *stage, the caller's scratch, which is grown once
// to what a write needs: streamBufReal and its slack, or without a
// combiner the inputs' size bytes if fewer (what a combiner will emit is
// not known).
func writeMerged(ctx *TaskContext, f spill.File, streams []recordStream, size int, combine ReduceFunc, stage *[]byte) error {
	p := ctx.P
	m := newMergeStream(streams)
	need := streamBufReal + streamBufSlack
	if combine == nil {
		need = min(size, need)
	}
	if cap(*stage) < need {
		*stage = make([]byte, 0, need)
	}
	buf := (*stage)[:0]
	defer func() { *stage = buf[:0] }()
	var werr error
	flush := func(force bool) {
		if werr != nil {
			return
		}
		if len(buf) >= streamBufReal || (force && len(buf) > 0) {
			ctx.FlushCPU()
			werr = f.Write(p, buf)
			buf = buf[:0]
		}
	}
	if combine == nil {
		for werr == nil && m.next(p) {
			buf = appendRecord(buf, m.key(), m.value())
			ctx.ChargeCPU(m.cmp)
			flush(false)
		}
	} else {
		var g grouper
		var vi ValueIter
		eachGroup(ctx, &g, &vi, m, func(k, v []byte) { ctx.ChargeCPU(perRecord + m.cmp) }, combine,
			func(k, v []byte) {
				buf = appendRecord(buf, k, v)
				flush(false)
			}, &werr)
	}
	if werr != nil {
		return werr
	}
	ctx.FlushCPU()
	flush(true)
	if werr != nil {
		return werr
	}
	return f.Close(p)
}

func countRecords(seg []byte) int64 {
	n := int64(0)
	for off := 0; off < len(seg); {
		_, _, next := decodeRecord(seg, off)
		off = next
		n++
	}
	return n
}
