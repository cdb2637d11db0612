package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"maps"

	"spongefiles/internal/dfs"
	"spongefiles/internal/mapreduce"
	"spongefiles/internal/media"
	"spongefiles/internal/pig"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
	"spongefiles/internal/workload"
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
// servers), read it back, compare digests, and delete it. Phases fired
// in order: pre-write, mid-write, post-write, mid-read, post-read, and
// post-delete once every chunk is freed.
type SpillWorkload struct {
	// MB is the virtual payload size (default 32).
	MB int64
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
	f.Delete(p)
	rc.Phase(p, PhasePostDelete)
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
	c := rc.Cluster
	fs := dfs.New(c)
	fs.BlockVirtual = 16 * media.MB // several map tasks per node
	eng := mapreduce.NewEngine(c, fs)
	conf := workload.KeyCount(c, fs, "scenario-"+rc.Case.Name, records, func(i int) int { return i % vocab })
	conf.NumReducers = w.Reducers
	if conf.NumReducers <= 0 {
		conf.NumReducers = 2
	}
	conf.SpillFactory = spill.SpongeFactory(rc.Svc)
	conf.Metrics = rc.Reg
	if w.NodeCombine {
		conf.NodeCombine = true
		conf.NodeCombineVirtual = w.CombineVirtual
		if conf.NodeCombineVirtual <= 0 {
			conf.NodeCombineVirtual = 4 * media.MB
		}
	}
	want := make(map[string]int64, vocab)
	for k := 0; k < vocab; k++ {
		n := int64(records / vocab)
		if k < records%vocab {
			n++
		}
		want[workload.CountKey(k)] = n
	}
	got := tallyReduce(&conf, func(v []byte) int64 { return int64(binary.LittleEndian.Uint32(v)) })
	rc.Phase(p, PhasePreWrite)
	res := eng.Submit(conf).Wait(p)
	if res.Failed {
		rc.SetDigestMatch(false)
		return fmt.Errorf("wordcount job failed")
	}
	rc.SetDigestMatch(maps.Equal(got, want))
	rc.Phase(p, PhasePostRead)
	return nil
}

// tallyReduce wraps conf's reduce so that the count it emits for each
// key also lands in the returned map — set, not added, so a retried
// attempt overwrites its predecessor's partial output instead of double
// counting.
func tallyReduce(conf *mapreduce.JobConf, count func(v []byte) int64) map[string]int64 {
	got := make(map[string]int64)
	inner := conf.Reduce
	conf.Reduce = func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
		inner(ctx, key, vals, func(k, v []byte) {
			got[string(k)] = count(v)
			emit(k, v)
		})
	}
	return got
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
	q, want := workload.DomainCount(c, fs, "scenario-"+rc.Case.Name, tuples, seed)
	conf := q.Compile(1*media.GB, spill.SpongeFactory(rc.Svc))
	conf.Metrics = rc.Reg
	conf.NodeCombineVirtual = w.CombineVirtual
	if conf.NodeCombineVirtual <= 0 {
		conf.NodeCombineVirtual = 2 * media.MB
	}
	got := tallyReduce(&conf, func(v []byte) int64 { return pig.DecodeTuple(v).Int(0) })
	rc.Phase(p, PhasePreWrite)
	res := eng.Submit(conf).Wait(p)
	if res.Failed {
		rc.SetDigestMatch(false)
		return fmt.Errorf("pig job failed")
	}
	rc.SetDigestMatch(maps.Equal(got, want))
	rc.Phase(p, PhasePostRead)
	return nil
}
