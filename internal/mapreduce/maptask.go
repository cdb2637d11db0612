package mapreduce

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"

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
type sortBuffer struct {
	data  []byte
	index []bufRec
	limit int
	parts int
	// pbits is how many of a word's top bits hold the partition.
	pbits uint
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
	return &sortBuffer{
		data:  make([]byte, 0, min(slab, limit)),
		limit: limit, parts: parts,
		pbits: uint(bits.Len(uint(parts - 1))),
	}
}

// reset empties the buffer, keeping the slab and the index's backing.
func (b *sortBuffer) reset() {
	b.data = b.data[:0]
	b.index = b.index[:0]
}

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
	prefix := keyPrefix(k)
	b.index = append(b.index, bufRec{
		word: uint64(part)<<(64-b.pbits) | prefix>>b.pbits,
		low:  uint32(prefix),
		off:  int32(off), klen: int32(len(k)), totallen: int32(size),
	})
	return true
}

func (b *sortBuffer) empty() bool { return len(b.index) == 0 }
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

// sortAndSlice sorts by (partition, key) and returns the serialized
// per-partition segments; the buffer is then reset. The returned sort
// comparison count lets the caller charge CPU.
//
// The sort is not stable, and where records with equal keys land is
// part of the output: a reduce sees a key's values in merge order, and
// the bytes of every spill and shuffle segment follow from it. That
// order is pinned to pdqsort's: sortRecs is slices.SortFunc's, step for
// step (TestSortBufferOrderMatchesSortSlice).
func (b *sortBuffer) sortAndSlice() (segs [][]byte, comparisons int) {
	n := len(b.index)
	segs = make([][]byte, b.parts)
	if n == 0 {
		return segs, 0
	}
	sortRecs(b.index, b.data)
	// The index is now grouped by partition: size each segment from it
	// before copying, so every segment is allocated once.
	for lo := 0; lo < n; {
		part, size, hi := b.partOf(b.index[lo]), 0, lo
		for ; hi < n && b.partOf(b.index[hi]) == part; hi++ {
			size += int(b.index[hi].totallen)
		}
		seg := make([]byte, 0, size)
		for _, r := range b.index[lo:hi] {
			seg = append(seg, b.data[r.off:r.off+r.totallen]...)
		}
		segs[part] = seg
		lo = hi
	}
	comparisons = n * bits.Len(uint(n))
	b.reset()
	return segs, comparisons
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

	buf := job.takeSortBuffer(ctx.Node.RealOf(block.Size), ctx.Node.RealOf(conf.SortBufferVirtual))
	// The buffer goes back as soon as the last record is sorted out of
	// it — the task still has its output to merge and write, and the slab
	// must not stay reachable through that — or when the attempt dies.
	releaseBuf := func() {
		if buf != nil {
			job.putSortBuffer(buf)
			buf = nil
		}
	}
	defer releaseBuf()
	mapDisk := spill.NewDiskTarget(ctx.Node) // map side always spills locally
	var spills []*mapSpill

	spillBuffer := func() error {
		segs, cmps := buf.sortAndSlice()
		ctx.ChargeCPU(simtime.Duration(cmps) * compareCost)
		combineSegs(ctx, conf, segs)
		sp := &mapSpill{files: make([]spill.File, len(segs))}
		for part, seg := range segs {
			if len(seg) == 0 {
				continue
			}
			f := mapDisk.Create(p, fmt.Sprintf("%s-m%d-s%d-p%d", conf.Name, split, len(spills), part))
			if err := f.Write(p, seg); err != nil {
				return err
			}
			if err := f.Close(p); err != nil {
				return err
			}
			sp.files[part] = f
		}
		spills = append(spills, sp)
		ctx.run.SpillEvents++
		return nil
	}

	emit := func(k, v []byte) {
		part := conf.Partition(k, conf.NumReducers)
		if buf.add(part, k, v) {
			return
		}
		if err := spillBuffer(); err != nil {
			panic(err)
		}
		if !buf.add(part, k, v) {
			panic("mapreduce: record larger than sort buffer")
		}
	}

	// Drive the generator, charging input I/O in batches by the virtual
	// size of records consumed.
	var ioDebt int64
	gen := conf.Input.MakeRecords(split)
	gen(func(k, v []byte) {
		ioDebt += ctx.Node.VirtualOf(recSize(k, v))
		if ioDebt >= 8*media.MB {
			reader.ReadCharge(p, ioDebt)
			ioDebt = 0
		}
		ctx.ChargeCPU(perRecord)
		ctx.chargeBytes(recSize(k, v), mapRate)
		ctx.run.InputRecords++
		conf.Map(ctx, k, v, emit)
	})
	// Top up to the full split cost.
	reader.ReadCharge(p, ioDebt)
	for reader.Remaining() > 0 {
		reader.ReadCharge(p, 8*media.MB)
	}

	// Produce the final per-partition output. With no prior spill the
	// buffer's segments are the output; otherwise merge spills + buffer.
	if len(spills) == 0 {
		segs, cmps := buf.sortAndSlice()
		releaseBuf()
		ctx.ChargeCPU(simtime.Duration(cmps) * compareCost)
		combineSegs(ctx, conf, segs)
		ctx.FlushCPU()
		deliverMapOutput(ctx, job, split, segs)
		return segs, nil
	}
	if !buf.empty() {
		if err := spillBuffer(); err != nil {
			return nil, err
		}
	}
	releaseBuf()
	out = make([][]byte, conf.NumReducers)
	for part := 0; part < conf.NumReducers; part++ {
		var streams []recordStream
		size := 0
		for _, sp := range spills {
			if f := sp.files[part]; f != nil {
				streams = append(streams, newFileStream(f))
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
	}
	ctx.FlushCPU()
	for _, sp := range spills {
		for _, f := range sp.files {
			if f != nil {
				f.Delete(p)
			}
		}
	}
	deliverMapOutput(ctx, job, split, out)
	return out, nil
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

// combineState is the task-scoped scratch the combiner path recycles
// across segments and spills: the output slab, the emit/onRec closures,
// and the stream/grouper/iterator structs. Steady state allocates
// nothing per segment — each consumed input segment's backing becomes
// the next output slab.
type combineState struct {
	out   []byte
	emit  Emit
	onRec func(k, v []byte)
	src   memStream
	g     grouper
	vi    ValueIter
}

// combineSegs runs the job's combiner over each sorted segment in place.
func combineSegs(ctx *TaskContext, conf *JobConf, segs [][]byte) {
	if conf.Combine == nil {
		return
	}
	cs := &ctx.combine
	if cs.emit == nil {
		cs.emit = func(k, v []byte) { cs.out = appendRecord(cs.out, k, v) }
		cs.onRec = func(k, v []byte) { ctx.ChargeCPU(perRecord) }
	}
	for part, seg := range segs {
		if len(seg) == 0 {
			continue
		}
		if cap(cs.out) < len(seg) {
			// A combiner may emit more bytes than it consumed (satellite
			// coverage pins this); the slab grows then and is kept.
			cs.out = make([]byte, 0, cap(seg))
		}
		cs.out = cs.out[:0]
		cs.src.reset(seg)
		eachGroup(ctx, &cs.g, &cs.vi, &cs.src, cs.onRec, conf.Combine, cs.emit, nil)
		// The combined output replaces the segment; the consumed input's
		// backing is recycled as the next segment's output slab.
		segs[part], cs.out = cs.out, seg[:0]
	}
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
