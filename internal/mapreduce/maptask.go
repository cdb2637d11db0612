package mapreduce

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"spongefiles/internal/dfs"
	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
)

// sortBuffer is the map-side in-memory sort buffer (io.sort.mb): emitted
// records are serialized into one slab and sorted by (partition, key)
// through an offset index, exactly as Hadoop's MapOutputBuffer does.
//
// The buffer is full when its serialized bytes would pass limit, the
// job's io.sort.mb in real bytes; the slab's capacity never decides a
// spill. The slab starts at what the task's split needs and grows only
// when the task's output outgrows it.
//
// add only appends: the record to the slab and its partition to recPart.
// A flush (startSort) builds the index from the two in one pass, sorts
// it and, for a job without a combiner, slices the sorted records into
// segments — all on a helper goroutine, while the task sleeps the
// sort's virtual charge, which depends on the record count alone. From
// startSort to join the helper owns the flushed slab, side array, index
// and segment list. The buffer is its task's alone until the task has
// joined: it goes back to the job's list only after the join, on every
// path, the unwinding of a dead attempt included.
type sortBuffer struct {
	data    []byte
	recPart []uint32 // each record's partition, in slab order
	index   []bufRec // the last flush's sorted index; the helper's until joined
	limit   int
	parts   int
	// pbits is how many of a word's top bits hold the partition.
	pbits uint

	// The hand-off: done is the helper's, and sortFn is bound once, so a
	// flush allocates nothing of its own.
	done   sync.WaitGroup
	sortFn func()
	// What the helper works on: the flushed slab and side array, and the
	// segment list it slices into (nil with a combiner).
	fdata []byte
	fpart []uint32
	fsegs [][]byte

	// comb is the combiner's scratch, recycled with the buffer.
	comb combineState
}

// bufRec is one record's index entry. word packs the partition into
// its top pbits bits and the key's first eight bytes, big-endian and
// zero-padded, below them, so that one integer comparison settles most
// of the sort's comparisons without touching the slab; low keeps the
// prefix's last 32 bits, which hold every bit the partition of a job of
// up to 2^32 reducers pushes out of word.
type bufRec struct {
	word     uint64
	low      uint32
	off      int32
	klen     int32
	totallen int32
}

// newSortBuffer makes a buffer that spills past limit bytes, with a slab
// of slab bytes to start, for a job of parts reducers.
func newSortBuffer(slab, limit, parts int) *sortBuffer {
	b := &sortBuffer{
		data:  make([]byte, 0, min(slab, limit)),
		limit: limit, parts: parts,
		pbits: uint(bits.Len(uint(parts - 1))),
	}
	b.sortFn = b.sortFlushed
	return b
}

// reset empties the buffer, keeping its backing arrays.
func (b *sortBuffer) reset() {
	b.data = b.data[:0]
	b.recPart = b.recPart[:0]
}

// join waits for the flush in progress, if any.
func (b *sortBuffer) join() { b.done.Wait() }

// takeSortBuffer gives a starting map task its sort buffer: one a
// finished task of this job left behind, else a new one with a slab of
// the task's split and an eighth.
func (rj *runningJob) takeSortBuffer(splitReal, limit int) *sortBuffer {
	if n := len(rj.sortBufs); n > 0 {
		b := rj.sortBufs[n-1]
		rj.sortBufs[n-1] = nil
		rj.sortBufs = rj.sortBufs[:n-1]
		return b
	}
	return newSortBuffer(splitReal+splitReal/8, limit, rj.conf.NumReducers)
}

// putSortBuffer takes back the buffer of a map attempt that has sorted
// its last record, or died, if a map task of this job still waiting for
// a slot has no buffer in the list yet; otherwise it is garbage at once.
// A launched task takes one the instant it starts, so the list never
// outnumbers the waiting tasks and is empty once the last has started:
// no buffer outlives the map phase, where it would only raise the
// heap's peak under the reduce-side merges. dispatch drops the list of a
// job that fails or is cancelled. The list is the job's, not the
// engine's, so a job's buffers are never held longer than it needs
// them, and a buffer never passes to a job with another io.sort.mb.
// A buffer comes back only with its last flush joined.
func (rj *runningJob) putSortBuffer(b *sortBuffer) {
	if len(rj.sortBufs) >= rj.waitingMaps() {
		return
	}
	b.reset()
	rj.sortBufs = append(rj.sortBufs, b)
}

// waitingMaps counts the job's map tasks that have no slot yet.
func (rj *runningJob) waitingMaps() int {
	n := 0
	for _, t := range rj.pending {
		if t.kind == MapTask {
			n++
		}
	}
	return n
}

// keyPrefix packs the first eight bytes of k, zero-padded, big-endian:
// prefixes order the way bytes.Compare orders the keys they come from.
func keyPrefix(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var p uint64
	for i, c := range k {
		p |= uint64(c) << (56 - 8*uint(i))
	}
	return p
}

// add appends a record, reporting false when the buffer is full (the
// caller must spill first).
func (b *sortBuffer) add(part int, k, v []byte) bool {
	if uint(part) >= uint(b.parts) {
		panic(fmt.Sprintf("mapreduce: partition %d of %d", part, b.parts))
	}
	off, size := len(b.data), recSize(k, v)
	if off+size > b.limit {
		return false
	}
	if off+size > cap(b.data) {
		grown := make([]byte, off, min(max(2*cap(b.data), off+size), b.limit))
		copy(grown, b.data)
		b.data = grown
	}
	b.data = appendRecord(b.data, k, v)
	b.recPart = append(b.recPart, uint32(part))
	return true
}

func (b *sortBuffer) empty() bool { return len(b.recPart) == 0 }
func (b *sortBuffer) bytes() int  { return len(b.data) }

// partOf is the partition packed into r's word.
func (b *sortBuffer) partOf(r bufRec) int { return int(r.word >> (64 - b.pbits)) }

func keyAt(slab []byte, r bufRec) []byte {
	return slab[r.off+recHeader : r.off+recHeader+r.klen]
}

// lessRec orders index entries by (partition, key), as bytes.Compare
// orders the full keys. It must stay inlinable (scripts/check.sh fails
// if the compiler stops saying so): it is the sort's every comparison.
func lessRec(slab []byte, x, y bufRec) bool {
	if x.word != y.word {
		return x.word < y.word
	}
	return tieRec(slab, x, y) < 0
}

// tieRec compares two entries whose words are equal: the same partition
// and the same leading prefix bits.
//
//go:noinline
func tieRec(slab []byte, x, y bufRec) int {
	switch {
	case x.low != y.low:
		return cmp.Compare(x.low, y.low)
	case x.klen <= 8 && y.klen <= 8:
		// Equal prefixes of keys this short: one key is the other
		// followed by zero bytes, so the shorter sorts first.
		return cmp.Compare(x.klen, y.klen)
	}
	return bytes.Compare(keyAt(slab, x), keyAt(slab, y))
}

// sortCharge is the virtual CPU of sorting n records: n·⌈log2 n⌉
// comparisons.
func sortCharge(n int) simtime.Duration {
	return simtime.Duration(n*bits.Len(uint(n))) * compareCost
}

// startSort hands the buffer's records to the helper and empties the
// buffer; it returns the record count the caller charges for. segs, one per partition, receives the sorted
// records sliced into segments; nil leaves them in the index and the
// flushed slab for combineSorted. An empty buffer starts no helper.
//
// The sort is not stable, and where records with equal keys land is
// part of the output: a reduce sees a key's values in merge order, and
// the bytes of every spill and shuffle segment follow from it. That
// order is pinned to pdqsort's: sortRecs is slices.SortFunc's, step for
// step (TestSortBufferOrderMatchesSortSlice).
func (b *sortBuffer) startSort(segs [][]byte) int {
	n := len(b.recPart)
	b.fdata, b.fpart, b.fsegs = b.data, b.recPart, segs
	b.reset()
	if n > 0 {
		b.done.Add(1)
		go b.sortFn()
	} else {
		b.index = b.index[:0]
	}
	return n
}

// sortFlushed is the helper's work: build the index from the flushed
// slab in one pass, sort it, and slice it if asked. It touches nothing
// of the buffer but the fields startSort handed over and the index.
func (b *sortBuffer) sortFlushed() {
	data, recPart := b.fdata, b.fpart
	idx := b.index[:0]
	if cap(idx) < len(recPart) {
		idx = make([]bufRec, 0, cap(recPart))
	}
	idx = idx[:len(recPart)]
	off := 0
	for i, part := range recPart {
		klen := int(binary.LittleEndian.Uint32(data[off:]))
		size := recHeader + klen + int(binary.LittleEndian.Uint32(data[off+4:]))
		prefix := keyPrefix(data[off+recHeader : off+recHeader+klen])
		idx[i] = bufRec{
			word: uint64(part)<<(64-b.pbits) | prefix>>b.pbits,
			low:  uint32(prefix),
			off:  int32(off), klen: int32(klen), totallen: int32(size),
		}
		off += size
	}
	sortRecs(idx, data)
	if b.fsegs != nil {
		b.slice(idx, b.fsegs)
		b.fsegs = nil // the buffer must not keep the task's output reachable
	}
	b.index = idx
	b.done.Done()
}

// slice copies the sorted records into one exact-size allocation and
// points each partition's segment at its run of it.
func (b *sortBuffer) slice(idx []bufRec, segs [][]byte) {
	out := make([]byte, 0, len(b.fdata))
	for len(idx) > 0 {
		part, start := b.partOf(idx[0]), len(out)
		out, idx = b.appendRun(out, idx, part)
		segs[part] = out[start:len(out):len(out)]
	}
}

// appendRun appends to dst the flushed records of idx's leading run in
// partition part, and returns dst and the rest of idx.
func (b *sortBuffer) appendRun(dst []byte, idx []bufRec, part int) ([]byte, []bufRec) {
	for len(idx) > 0 && b.partOf(idx[0]) == part {
		r := idx[0]
		dst = append(dst, b.fdata[r.off:r.off+r.totallen]...)
		idx = idx[1:]
	}
	return dst, idx
}

// largestRun is the size in bytes of the largest partition's run of the
// joined flush's index.
func (b *sortBuffer) largestRun() int {
	largest, size := 0, 0
	for i, r := range b.index {
		if i > 0 && b.partOf(r) != b.partOf(b.index[i-1]) {
			size = 0
		}
		size += int(r.totallen)
		largest = max(largest, size)
	}
	return largest
}

// combineState is the combiner's scratch, kept on the sort buffer so
// that it passes from task to task with the buffer: the output slab
// the combined records collect in before their one exact-size copy, the
// emit/onRec closures bound once, and the stream, grouper and iterator.
// ctx is the combining task's, set for the one call.
type combineState struct {
	ctx   *TaskContext
	out   []byte
	emit  Emit
	onRec func(k, v []byte)
	src   indexStream
	g     grouper
	vi    ValueIter
}

// indexStream yields the records of a run of a sorted index, in index
// order, straight from the slab.
type indexStream struct {
	recs []bufRec
	slab []byte
	k, v []byte
}

func (s *indexStream) next(p *simtime.Proc) bool {
	if len(s.recs) == 0 {
		return false
	}
	r := s.recs[0]
	s.recs = s.recs[1:]
	ks := r.off + recHeader
	s.k, s.v = s.slab[ks:ks+r.klen], s.slab[ks+r.klen:r.off+r.totallen]
	return true
}

func (s *indexStream) key() []byte   { return s.k }
func (s *indexStream) value() []byte { return s.v }

// combineSorted runs the combiner over a joined flush's sorted index,
// partition by partition, and sets each partition's segment in segs to
// its combined records, all of them in one exact-size allocation.
func (b *sortBuffer) combineSorted(ctx *TaskContext, combine ReduceFunc, segs [][]byte) {
	cs := &b.comb
	if cs.emit == nil {
		cs.emit = func(k, v []byte) { cs.out = appendRecord(cs.out, k, v) }
		cs.onRec = func(k, v []byte) { cs.ctx.ChargeCPU(perRecord) }
	}
	cs.ctx, cs.out = ctx, cs.out[:0]
	idx := b.index
	for lo := 0; lo < len(idx); {
		part, start, hi := b.partOf(idx[lo]), len(cs.out), lo+1
		for hi < len(idx) && b.partOf(idx[hi]) == part {
			hi++
		}
		cs.src = indexStream{recs: idx[lo:hi], slab: b.fdata}
		eachGroup(ctx, &cs.g, &cs.vi, &cs.src, cs.onRec, combine, cs.emit, nil)
		// A placeholder of the right length; the copy below re-points it.
		segs[part] = cs.out[start:len(cs.out):len(cs.out)]
		lo = hi
	}
	cs.ctx, cs.src = nil, indexStream{}
	var out []byte
	if len(cs.out) > 0 {
		out = make([]byte, len(cs.out))
		copy(out, cs.out)
	}
	off := 0
	for part, seg := range segs {
		if seg != nil {
			segs[part] = out[off : off+len(seg) : off+len(seg)]
			off += len(seg)
		}
	}
}

// mapSpill is one map-side spill: per-partition sorted segment files.
// Each partition gets its own sequential file (a simplification of
// Hadoop's single indexed spill file that preserves the I/O pattern).
type mapSpill struct {
	files []spill.File // indexed by partition; nil if empty
}

// runMapTask executes one map attempt and returns the per-partition
// serialized, sorted output.
func runMapTask(ctx *TaskContext, eng *Engine, job *runningJob, split int) (out [][]byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("map task panic: %v", r)
		}
	}()
	conf := &job.conf
	p := ctx.P
	meta := eng.FS.Lookup(conf.Input.File)
	block := meta.Blocks[split]
	reader := eng.FS.OpenRange(conf.Input.File, ctx.Node, block.Offset, block.Size)
	ctx.run.InputVirtual = block.Size

	// Charge-only scan (e.g. the background grep): stream the split and
	// pay map CPU, no output.
	if conf.Input.MakeRecords == nil {
		for {
			n := reader.ReadCharge(p, 8*media.MB)
			if n == 0 {
				break
			}
			ctx.ChargeCPU(simtime.Duration(float64(n) / float64(mapRate) * float64(simtime.Second)))
		}
		ctx.FlushCPU()
		return nil, nil
	}

	t := &mapAttempt{
		ctx: ctx, job: job, conf: conf, split: split, reader: reader,
		buf:  job.takeSortBuffer(ctx.Node.RealOf(block.Size), ctx.Node.RealOf(conf.SortBufferVirtual)),
		disk: spill.NewDiskTarget(ctx.Node), // map side always spills locally
	}
	t.emitFn = t.emit
	defer t.unwind()

	// Drive the generator, charging input I/O in batches by the virtual
	// size of records consumed.
	conf.Input.MakeRecords(split)(t.record)
	// Top up to the full split cost.
	reader.ReadCharge(p, t.ioDebt)
	for reader.Remaining() > 0 {
		reader.ReadCharge(p, 8*media.MB)
	}

	// Produce the final per-partition output. With no prior spill the
	// buffer's segments are the output; otherwise merge spills + buffer.
	if len(t.spills) == 0 {
		segs := t.sortOut(true)
		ctx.FlushCPU()
		deliverMapOutput(ctx, job, split, segs)
		return segs, nil
	}
	if !t.buf.empty() {
		if err := t.spill(); err != nil {
			return nil, err
		}
	}
	t.releaseBuf()
	out = make([][]byte, conf.NumReducers)
	var bufs readBufs // one partition's merge reads through the last one's buffers
	for part := 0; part < conf.NumReducers; part++ {
		var streams []recordStream
		size := 0
		for _, sp := range t.spills {
			if f := sp.files[part]; f != nil {
				streams = append(streams, bufs.open(f))
				size += int(f.Size())
			}
		}
		if len(streams) == 0 {
			continue
		}
		m := newMergeStream(streams)
		// The spills were combined when they were written; the merge only
		// interleaves them, so its output is their bytes exactly.
		seg := make([]byte, 0, size)
		for m.next(p) {
			seg = appendRecord(seg, m.key(), m.value())
			ctx.ChargeCPU(m.cmp)
		}
		out[part] = seg
		bufs.recycle(streams)
	}
	ctx.FlushCPU()
	for _, sp := range t.spills {
		for _, f := range sp.files {
			if f != nil {
				f.Delete(p)
			}
		}
	}
	deliverMapOutput(ctx, job, split, out)
	return out, nil
}

// mapAttempt is a map attempt's record path: the input records it
// charges for, the sort buffer they are emitted into, and the spills.
type mapAttempt struct {
	ctx    *TaskContext
	job    *runningJob
	conf   *JobConf
	split  int
	reader *dfs.Reader
	ioDebt int64
	emitFn Emit // emit, bound once
	// buf is the task's sort buffer until it goes back to the job's list:
	// as soon as the last record is sorted out of it — the task still has
	// its output to merge and write, and the slab must not stay reachable
	// through that — or when the attempt dies.
	buf    *sortBuffer
	disk   spill.Target
	spills []*mapSpill
}

// record takes one input record: it charges the input I/O in batches by
// the records' virtual size, and the map CPU, and runs the map function.
func (t *mapAttempt) record(k, v []byte) {
	ctx := t.ctx
	t.ioDebt += ctx.Node.VirtualOf(recSize(k, v))
	if t.ioDebt >= 8*media.MB {
		t.reader.ReadCharge(ctx.P, t.ioDebt)
		t.ioDebt = 0
	}
	ctx.ChargeCPU(perRecord)
	ctx.chargeBytes(recSize(k, v), mapRate)
	ctx.run.InputRecords++
	t.conf.Map(ctx, k, v, t.emitFn)
}

func (t *mapAttempt) emit(k, v []byte) {
	part := t.conf.Partition(k, t.conf.NumReducers)
	if t.buf.add(part, k, v) {
		return
	}
	if err := t.spill(); err != nil {
		panic(err)
	}
	if !t.buf.add(part, k, v) {
		panic("mapreduce: record larger than sort buffer")
	}
}

func (t *mapAttempt) releaseBuf() {
	if t.buf != nil {
		t.job.putSortBuffer(t.buf)
		t.buf = nil
	}
}

// unwind is the attempt's last word, however it ends: the sort it may
// have left running is joined, and the buffer goes back.
func (t *mapAttempt) unwind() {
	if t.buf != nil {
		t.buf.join()
	}
	t.releaseBuf()
}

// sortOut is the one flush path: the buffer's records, sorted on the
// helper while the task sleeps the sort's charge, come back as
// per-partition segments, combined if the job has a combiner. A spill
// without a combiner gets nil: its records stay in the buffer's sorted
// index, and spill writes them from there. The last flush gives the
// buffer back once the segments are made.
func (t *mapAttempt) sortOut(last bool) [][]byte {
	combine := t.conf.Combine
	var segs [][]byte
	if combine != nil || last {
		segs = make([][]byte, t.conf.NumReducers)
	}
	var sliced [][]byte
	if combine == nil {
		sliced = segs
	}
	b := t.buf
	n := b.startSort(sliced)
	t.ctx.ChargeCPU(sortCharge(n))
	b.join()
	if combine != nil {
		b.combineSorted(t.ctx, combine, segs)
	}
	if last {
		t.releaseBuf()
	}
	return segs
}

// spill flushes the buffer to one map-side spill: a sorted segment file
// per partition on the local disk. Without a combiner each partition's
// records go from the sorted index into one scratch slab, reused from
// partition to partition (a file keeps its own copy of what it is
// written), so a spill never holds a second copy of the whole buffer.
func (t *mapAttempt) spill() error {
	p, conf, b := t.ctx.P, t.conf, t.buf
	segs := t.sortOut(false)
	var scratch []byte
	if segs == nil {
		scratch = make([]byte, 0, b.largestRun())
	}
	idx := b.index
	sp := &mapSpill{files: make([]spill.File, conf.NumReducers)}
	for part := range sp.files {
		var seg []byte
		if segs != nil {
			seg = segs[part]
		} else {
			scratch, idx = b.appendRun(scratch[:0], idx, part)
			seg = scratch
		}
		if len(seg) == 0 {
			continue
		}
		f := t.disk.Create(p, fmt.Sprintf("%s-m%d-s%d-p%d", conf.Name, t.split, len(t.spills), part))
		if err := f.Write(p, seg); err != nil {
			return err
		}
		if err := f.Close(p); err != nil {
			return err
		}
		sp.files[part] = f
	}
	t.spills = append(t.spills, sp)
	t.ctx.run.SpillEvents++
	return nil
}

// deliverMapOutput routes a finished map task's output: into the node's
// shared combine buffer when the node-combine stage is on and accepts
// it, else through the stock per-task output path.
func deliverMapOutput(ctx *TaskContext, job *runningJob, split int, segs [][]byte) {
	if job.nc != nil && job.nc.publish(ctx, split, segs) {
		return
	}
	writeMapOutput(ctx, job, split, segs)
}

// writeMapOutput charges writing the final map output file to the
// mapper's local disk and registers its stream for shuffle-time reads.
func writeMapOutput(ctx *TaskContext, job *runningJob, split int, segs [][]byte) {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	stream := ctx.Node.Disk.NewStream()
	if total > 0 {
		ctx.Node.WriteFile(ctx.P, stream, total)
	}
	job.mapOut[split] = &mapOutput{node: ctx.Node, stream: stream, parts: segs}
	ctx.run.OutputReal = int64(total)
}
