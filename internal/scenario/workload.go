package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"spongefiles/internal/dfs"
	"spongefiles/internal/mapreduce"
	"spongefiles/internal/media"
	"spongefiles/internal/pig"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
)

// Workload drives one case's job against the cluster. Run executes on
// a simulation process; it fires the workload's phase anchors through
// rc.Phase so phase-scheduled fault events land at deterministic
// points, verifies its own output (recording the verdict in the
// scenario_output_digest_match gauge), and returns an error only when
// the workload could not complete at all.
type Workload interface {
	Name() string
	Run(rc *RunContext, p *simtime.Proc) error
}

// SpillWorkload is the paper's core loop as a scenario workload: write
// a patterned payload through a SpongeFile whose local pool is too
// small to hold it (forcing the allocator chain across the real child
// servers), read it back, and compare digests. Phases fired in order:
// pre-write, mid-write, post-write, mid-read, post-read, and — when
// Delete is set — post-delete after the file is deleted.
type SpillWorkload struct {
	// MB is the virtual payload size (default 32).
	MB int64
	// Delete removes the file after verification (freeing every chunk)
	// and then fires the post-delete phase; membership cases hang
	// drain-dependent events there.
	Delete bool
}

// Name implements Workload.
func (w SpillWorkload) Name() string { return "spill-roundtrip" }

// Run implements Workload.
func (w SpillWorkload) Run(rc *RunContext, p *simtime.Proc) error {
	mb := w.MB
	if mb <= 0 {
		mb = 32
	}
	data := make([]byte, rc.Cluster.Cfg.R(mb*media.MB))
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	want := sha256.Sum256(data)

	agent := rc.Svc.NewAgent(rc.Cluster.Nodes[0])
	defer agent.Close()
	rc.Phase(p, PhasePreWrite)
	f := agent.Create(p, "scenario-"+rc.Case.Name)
	half := len(data) / 2
	if err := f.Write(p, data[:half]); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	rc.Phase(p, PhaseMidWrite)
	if err := f.Write(p, data[half:]); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	if err := f.Close(p); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	rc.Phase(p, PhasePostWrite)

	h := sha256.New()
	buf := make([]byte, rc.Svc.ChunkReal())
	got, midFired := 0, false
	for {
		n, err := f.Read(p, buf)
		if err != nil {
			return fmt.Errorf("read at offset %d: %w", got, err)
		}
		if n == 0 {
			break
		}
		h.Write(buf[:n])
		got += n
		if !midFired && got >= half {
			midFired = true
			rc.Phase(p, PhaseMidRead)
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	rc.SetDigestMatch(got == len(data) && sum == want)
	rc.Phase(p, PhasePostRead)
	if w.Delete {
		f.Delete(p)
		rc.Phase(p, PhasePostDelete)
	}
	if got != len(data) {
		return fmt.Errorf("short read: %d of %d bytes", got, len(data))
	}
	return nil
}

// WordCountWorkload runs a wordcount MapReduce job whose reduce-side
// spills ride the sponge (spill.SpongeFactory over the case's live
// transport) and verifies every key's count against the analytically
// known answer. With NodeCombine the per-node shared combine stage is
// on and its buffer sized to overflow through the sponge. Phases:
// pre-write before submit, post-read after verification.
type WordCountWorkload struct {
	// Records and Vocab shape the key stream: record i emits key
	// i%Vocab, so key k's count is Records/Vocab (+1 for the first
	// Records%Vocab keys). Defaults 120000 and 2000 — enough co-located
	// map output that a 4 MB node-combine buffer overflows.
	Records int
	Vocab   int
	// Reducers is NumReducers (default 2).
	Reducers int
	// NodeCombine enables the shared per-node combine stage;
	// CombineVirtual caps its buffer (default 4 MB — small enough to
	// overflow into the sponge at the default sizes).
	NodeCombine    bool
	CombineVirtual int64
}

// Name implements Workload.
func (w WordCountWorkload) Name() string {
	if w.NodeCombine {
		return "wordcount-nodecombine"
	}
	return "wordcount"
}

// Run implements Workload.
func (w WordCountWorkload) Run(rc *RunContext, p *simtime.Proc) error {
	records := w.Records
	if records <= 0 {
		records = 120000
	}
	vocab := w.Vocab
	if vocab <= 0 {
		vocab = 2000
	}
	reducers := w.Reducers
	if reducers <= 0 {
		reducers = 2
	}
	const keyLen = 6
	c := rc.Cluster
	fs := dfs.New(c)
	fs.BlockVirtual = 16 * media.MB // several map tasks per node
	eng := mapreduce.NewEngine(c, fs)
	realRec := keyLen + 4 + 8 // key + uint32 value + record header
	fs.AddExisting("/in/scenario-wordcount", c.Cfg.V(records*realRec))
	blocks := len(fs.Lookup("/in/scenario-wordcount").Blocks)
	one := make([]byte, 4)
	binary.LittleEndian.PutUint32(one, 1)
	sum := func(vals *mapreduce.ValueIter) uint32 {
		var total uint32
		for {
			v, ok := vals.Next()
			if !ok {
				return total
			}
			total += binary.LittleEndian.Uint32(v)
		}
	}
	// counts[key] is set (not added) by the reduce, so a retried
	// attempt overwrites its predecessor's partial output instead of
	// double counting.
	counts := make(map[string]int64, vocab)
	conf := mapreduce.JobConf{
		Name: "scenario-" + rc.Case.Name,
		Input: mapreduce.Input{
			File: "/in/scenario-wordcount",
			MakeRecords: func(split int) mapreduce.RecordGen {
				return func(emit mapreduce.Emit) {
					per := records / blocks
					lo, hi := split*per, (split+1)*per
					if split == blocks-1 {
						hi = records
					}
					for i := lo; i < hi; i++ {
						emit(nil, []byte(fmt.Sprintf("k%05d", i%vocab)))
					}
				}
			},
		},
		Map: func(ctx *mapreduce.TaskContext, k, v []byte, emit mapreduce.Emit) {
			emit(v[:keyLen], one)
		},
		Combine: func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
			var out [4]byte
			binary.LittleEndian.PutUint32(out[:], sum(vals))
			emit(key, out[:])
		},
		Reduce: func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
			counts[string(key)] = int64(sum(vals))
			emit(key, nil)
		},
		NumReducers:  reducers,
		SpillFactory: spill.SpongeFactory(rc.Svc),
		Metrics:      rc.Reg,
	}
	if w.NodeCombine {
		conf.NodeCombine = true
		conf.NodeCombineVirtual = w.CombineVirtual
		if conf.NodeCombineVirtual <= 0 {
			conf.NodeCombineVirtual = 4 * media.MB
		}
	}
	rc.Phase(p, PhasePreWrite)
	res := eng.Submit(conf).Wait(p)
	if res.Failed {
		rc.SetDigestMatch(false)
		return fmt.Errorf("wordcount job failed")
	}
	match := len(counts) == vocab
	for k := 0; k < vocab; k++ {
		want := int64(records / vocab)
		if k < records%vocab {
			want++
		}
		if counts[fmt.Sprintf("k%05d", k)] != want {
			match = false
			break
		}
	}
	rc.SetDigestMatch(match)
	rc.Phase(p, PhasePostRead)
	return nil
}

// PigWorkload runs the algebraic domain-count Pig query (GROUP BY
// domain, COUNT over a skewed corpus — one hot domain holds roughly
// half the tuples) compiled with the fold as combiner and node
// combining on, spilling through the sponge, and verifies every
// group's count against the generator's tally. Phases: pre-write
// before submit, post-read after verification.
type PigWorkload struct {
	// Tuples is the corpus size (default 30000); Seed drives the
	// deterministic domain assignment (default 7).
	Tuples int
	Seed   int64
	// CombineVirtual caps the node-combine buffer (default 2 MB, small
	// enough that the combined runs overflow into the sponge).
	CombineVirtual int64
}

// Name implements Workload.
func (w PigWorkload) Name() string { return "pig-domain-count" }

// Run implements Workload.
func (w PigWorkload) Run(rc *RunContext, p *simtime.Proc) error {
	tuples := w.Tuples
	if tuples <= 0 {
		tuples = 30000
	}
	seed := w.Seed
	if seed == 0 {
		seed = 7
	}
	c := rc.Cluster
	fs := dfs.New(c)
	fs.BlockVirtual = 16 * media.MB
	eng := mapreduce.NewEngine(c, fs)

	rng := rand.New(rand.NewSource(seed))
	blobs := make([][]byte, tuples)
	want := make(map[string]int64)
	totalReal := 0
	for i := range blobs {
		dom := "hot.com"
		if rng.Intn(2) == 1 {
			dom = fmt.Sprintf("d%d.com", 1+rng.Intn(40))
		}
		want[dom]++
		blobs[i] = pig.AppendTuple(nil, pig.Tuple{fmt.Sprintf("url%d", i), dom})
		totalReal += len(blobs[i]) + 8
	}
	name := "/in/scenario-domains"
	fs.AddExisting(name, c.Cfg.V(totalReal))
	blocks := len(fs.Lookup(name).Blocks)
	q := &pig.GroupQuery{
		Name: "scenario-" + rc.Case.Name,
		Input: mapreduce.Input{
			File: name,
			MakeRecords: func(split int) mapreduce.RecordGen {
				return func(emit mapreduce.Emit) {
					per := (len(blobs) + blocks - 1) / blocks
					lo, hi := split*per, (split+1)*per
					if hi > len(blobs) {
						hi = len(blobs)
					}
					for _, b := range blobs[lo:hi] {
						emit(nil, b)
					}
				}
			},
		},
		GroupKey:  func(t pig.Cursor) string { return t.String(1) },
		Algebraic: pig.CountFold(),
	}
	conf := q.Compile(1*media.GB, spill.SpongeFactory(rc.Svc))
	conf.Metrics = rc.Reg
	conf.NodeCombineVirtual = w.CombineVirtual
	if conf.NodeCombineVirtual <= 0 {
		conf.NodeCombineVirtual = 2 * media.MB
	}
	// Capture the final per-group counts off the compiled reduce;
	// set-semantics keeps a retried reduce attempt from double
	// counting.
	got := make(map[string]int64)
	innerReduce := conf.Reduce
	conf.Reduce = func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
		innerReduce(ctx, key, vals, func(k, v []byte) {
			got[string(k)] = pig.DecodeTuple(v).Int(0)
			emit(k, v)
		})
	}
	rc.Phase(p, PhasePreWrite)
	res := eng.Submit(conf).Wait(p)
	if res.Failed {
		rc.SetDigestMatch(false)
		return fmt.Errorf("pig job failed")
	}
	match := len(got) == len(want)
	if match {
		keys := make([]string, 0, len(want))
		for k := range want {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if got[k] != want[k] {
				match = false
				break
			}
		}
	}
	rc.SetDigestMatch(match)
	rc.Phase(p, PhasePostRead)
	return nil
}
