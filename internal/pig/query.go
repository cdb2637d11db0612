package pig

import (
	"spongefiles/internal/mapreduce"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
)

// UDFContext gives a user-defined function access to the bag machinery.
type UDFContext struct {
	P    *simtime.Proc
	Task *mapreduce.TaskContext
	MM   *MemoryManager
}

// UDF is a holistic group function: it receives one group's bag and
// emits output tuples.
type UDF func(ctx *UDFContext, group string, bag *Bag, emit func(Tuple))

// GroupQuery is the dataflow shape of the paper's two Pig queries:
// LOAD → (optional FOREACH projection) → GROUP BY key → UDF per group.
// It compiles to one MapReduce job whose reduce phase builds a
// (spillable) bag per group and applies the UDF — the holistic UDFs
// that skew-avoidance cannot help with (§2.2).
//
// The per-tuple hooks read through a Cursor and so see views: a string
// they return is copied by the plan before the tuple's buffer moves on.
type GroupQuery struct {
	Name string
	// Input provides the tuple stream: a DFS file plus a per-split
	// generator yielding serialized tuples as record values.
	Input mapreduce.Input
	// Filter drops tuples map-side before any projection; nil keeps
	// everything.
	Filter func(Cursor) bool
	// Project lists the fields each tuple is trimmed to map-side, in
	// output order; nil models the naive no-projection plan of the
	// spam-quantiles query.
	Project []int
	// GroupKey extracts the grouping key from the (projected) tuple.
	GroupKey func(Cursor) string
	// UDF runs per group in the reduce.
	UDF UDF
	// SortKey, when set, makes each group's bag an ordered bag.
	SortKey func(Cursor) float64

	// Algebraic, when set, declares the group function algebraic (Pig's
	// Algebraic interface): partial aggregates fold associatively, so
	// the fold runs as a combiner at task scope, across co-located
	// tasks at node scope (JobConf.NodeCombine), and again during
	// reduce-side merges — holistic UDFs like TopK and Quantiles get
	// none of this. When Algebraic is set UDF/SortKey are ignored and
	// the reduce folds partials instead of building bags.
	Algebraic *AlgebraicFold

	// BagMemFraction is the fraction of the task heap available to
	// bags before the memory manager spills (Pig's collection
	// threshold); default 0.25.
	BagMemFraction float64
	// ChunkVirtual is the bag spill chunk size C; default 10 MB.
	ChunkVirtual int64
}

// AlgebraicFold describes an algebraic group function as Pig's
// Algebraic interface does: Init maps one input tuple to a partial
// aggregate, Merge folds two partials, Final turns the group's folded
// partial into output tuples. Init and Merge append the serialized
// partial onto dst and return it. Merge must be associative and
// commutative for the fold to run at any scope.
type AlgebraicFold struct {
	Init  func(dst []byte, t Cursor) []byte
	Merge func(dst []byte, acc, next Cursor) []byte
	Final func(group string, acc Cursor, emit func(Tuple))
}

// CountFold counts tuples per group: partial = (count), final = (count).
func CountFold() *AlgebraicFold {
	count := func(dst []byte, n int64) []byte { return AppendInt(AppendTupleHeader(dst, 1), n) }
	return &AlgebraicFold{
		Init:  func(dst []byte, t Cursor) []byte { return count(dst, 1) },
		Merge: func(dst []byte, acc, next Cursor) []byte { return count(dst, acc.Int(0)+next.Int(0)) },
		Final: func(group string, acc Cursor, emit func(Tuple)) { emit(acc.Tuple()) },
	}
}

// SumFold sums float field f per group: partial = (sum, count), final
// = (sum, count) — enough to derive averages downstream.
func SumFold(f int) *AlgebraicFold {
	partial := func(dst []byte, sum float64, n int64) []byte {
		return AppendInt(AppendFloat(AppendTupleHeader(dst, 2), sum), n)
	}
	return &AlgebraicFold{
		Init: func(dst []byte, t Cursor) []byte { return partial(dst, t.Float(f), 1) },
		Merge: func(dst []byte, acc, next Cursor) []byte {
			return partial(dst, acc.Float(0)+next.Float(0), acc.Int(1)+next.Int(1))
		},
		Final: func(group string, acc Cursor, emit func(Tuple)) { emit(acc.Tuple()) },
	}
}

// planScratch is the encode scratch of one running map, combine or
// reduce call. Calls of different tasks interleave wherever one blocks
// (an emit that spills, a CPU charge that sleeps), so each call takes
// its own from the plan's free list and returns it when done; tasks
// run one at a time, which makes the list safe without a lock.
//
// A holistic reduce call also leaves its group's bag slab and index
// here, so the next group's bag starts from them instead of growing
// its own.
type planScratch struct {
	key, val, tmp []byte
	slab          []byte
	recs          []bagRec
}

type scratchList []*planScratch

func (l *scratchList) get() *planScratch {
	if n := len(*l); n > 0 {
		s := (*l)[n-1]
		*l = (*l)[:n-1]
		return s
	}
	return new(planScratch)
}

func (l *scratchList) put(s *planScratch) { *l = append(*l, s) }

// mapTuple runs the map-side half shared by both plans: filter, project
// into s.val, copy the group key into s.key. It returns the tuple the
// rest of the plan sees, or false for one the filter dropped.
func (q *GroupQuery) mapTuple(s *planScratch, v []byte) (Cursor, bool) {
	c := mustScan(v)
	if q.Filter != nil && !q.Filter(c) {
		return c, false
	}
	if q.Project != nil {
		s.val = c.AppendProject(s.val[:0], q.Project)
		c = mustScan(s.val)
	}
	s.key = append(s.key[:0], q.GroupKey(c)...)
	return c, true
}

// Compile lowers the query to a MapReduce JobConf. The caller supplies
// the spill factory (disk versus SpongeFiles) and cluster heap size.
// Algebraic queries compile with the fold as the job's combiner and
// node combining enabled; holistic queries compile to the bag plan.
func (q *GroupQuery) Compile(heapVirtual int64, factory spill.Factory) mapreduce.JobConf {
	if q.Algebraic != nil {
		return q.compileAlgebraic(factory)
	}
	bagFrac := q.BagMemFraction
	if bagFrac <= 0 {
		bagFrac = 0.25
	}
	chunkV := q.ChunkVirtual
	if chunkV <= 0 {
		chunkV = DefaultChunkVirtual
	}
	var scratch scratchList
	conf := mapreduce.JobConf{
		Name:         q.Name,
		Input:        q.Input,
		NumReducers:  1, // both paper queries funnel into one straggling reduce
		SpillFactory: factory,
		Map: func(ctx *mapreduce.TaskContext, k, v []byte, emit mapreduce.Emit) {
			s := scratch.get()
			defer scratch.put(s)
			if t, ok := q.mapTuple(s, v); ok {
				emit(s.key, t.Raw())
			}
		},
		Reduce: func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
			s := scratch.get()
			defer scratch.put(s)
			budget := ctx.Node.RealOf(int64(float64(heapVirtual) * bagFrac))
			chunk := ctx.Node.RealOf(chunkV)
			mm := NewMemoryManager(ctx.P, ctx.Spill, budget, chunk)
			var bag *Bag
			group := string(key)
			if q.SortKey != nil {
				bag = mm.NewSortedBag(group, q.SortKey)
			} else {
				bag = mm.NewBag(group)
			}
			bag.slab, bag.recs = s.slab[:0], s.recs[:0]
			for {
				v, ok := vals.Next()
				if !ok {
					break
				}
				bag.AddSerialized(v)
			}
			uctx := &UDFContext{P: ctx.P, Task: ctx, MM: mm}
			q.UDF(uctx, group, bag, func(t Tuple) {
				s.val = AppendTuple(s.val[:0], t)
				emit(key, s.val)
			})
			s.slab, s.recs = bag.slab, bag.recs
			bag.Delete(ctx.P)
		},
	}
	return conf
}

// compileAlgebraic lowers an algebraic query: the map emits Init
// partials, the fold runs as the combiner (task scope, node scope via
// NodeCombine, and reduce-merge scope), and the reduce folds the
// surviving partials and applies Final. No bags are built — the
// aggregate state is one serialized tuple per group at every stage.
func (q *GroupQuery) compileAlgebraic(factory spill.Factory) mapreduce.JobConf {
	alg := q.Algebraic
	var scratch scratchList
	// fold drains one key's partials into a single accumulator, which
	// ping-pongs between s.val and s.tmp; nil means the key had none.
	fold := func(ctx *mapreduce.TaskContext, s *planScratch, vals *mapreduce.ValueIter) []byte {
		acc := false
		for {
			v, ok := vals.Next()
			if !ok {
				break
			}
			if !acc {
				s.val, acc = append(s.val[:0], v...), true
			} else {
				s.tmp = alg.Merge(s.tmp[:0], mustScan(s.val), mustScan(v))
				s.val, s.tmp = s.tmp, s.val
			}
			ctx.ChargeCPU(simtime.Microsecond)
		}
		if !acc {
			return nil
		}
		return s.val
	}
	return mapreduce.JobConf{
		Name:         q.Name,
		Input:        q.Input,
		NumReducers:  1,
		SpillFactory: factory,
		NodeCombine:  true,
		Map: func(ctx *mapreduce.TaskContext, k, v []byte, emit mapreduce.Emit) {
			s := scratch.get()
			defer scratch.put(s)
			if t, ok := q.mapTuple(s, v); ok {
				s.tmp = alg.Init(s.tmp[:0], t)
				emit(s.key, s.tmp)
			}
		},
		Combine: func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
			s := scratch.get()
			defer scratch.put(s)
			if acc := fold(ctx, s, vals); acc != nil {
				emit(key, acc)
			}
		},
		Reduce: func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
			s := scratch.get()
			defer scratch.put(s)
			acc := fold(ctx, s, vals)
			if acc == nil {
				return
			}
			alg.Final(string(key), mustScan(acc), func(t Tuple) {
				s.tmp = AppendTuple(s.tmp[:0], t)
				emit(key, s.tmp)
			})
		},
	}
}
