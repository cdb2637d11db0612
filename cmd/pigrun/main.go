// Pigrun executes a Pig Latin script (the subset of §2.1: LOAD, FILTER,
// FOREACH, GROUP BY, holistic UDFs, STORE) on a simulated cluster,
// spilling through disk or SpongeFiles, and prints each group's output
// tuples along with the job's runtime and straggler statistics.
//
// The LOAD name 'web' resolves to the synthetic web corpus of §4.2.1.
//
//	pigrun [-sponge] [-size 0.1] [-workers 8] [-reducers N] script.pig
//	echo "..." | pigrun -            # read the script from stdin
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"spongefiles/internal/bench"
	"spongefiles/internal/cluster"
	"spongefiles/internal/dfs"
	"spongefiles/internal/mapreduce"
	"spongefiles/internal/pig"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
	"spongefiles/internal/sponge"
	"spongefiles/internal/workload"
)

func main() {
	useSponge := flag.Bool("sponge", true, "spill to SpongeFiles (false = stock disk)")
	size := flag.Float64("size", 0.1, "dataset scale (1.0 = the paper's 10 GB corpus)")
	workers := flag.Int("workers", 8, "worker nodes")
	reducers := flag.Int("reducers", 0, "reduce tasks (0 = one per worker)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pigrun [flags] script.pig | -")
		os.Exit(2)
	}

	src, err := readScript(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	script, err := pig.Parse(src)
	if err != nil {
		fatal(err)
	}
	q, input, err := script.Plan()
	if err != nil {
		fatal(err)
	}
	if input != "web" {
		fatal(fmt.Errorf("pigrun: only the 'web' dataset is available, script loads %q", input))
	}

	cfg := cluster.PaperConfig()
	cfg.Workers = *workers
	sim := simtime.New()
	defer sim.Close()
	c := cluster.New(sim, cfg)
	fs := dfs.New(c)
	eng := mapreduce.NewEngine(c, fs)
	scfg := sponge.DefaultConfig()
	scfg.Remote = dfs.NewSpillStore(fs)
	svc := sponge.Start(c, scfg)

	w := workload.DefaultWebCorpus(c.Cfg.Scale)
	w.TotalVirtual = int64(float64(w.TotalVirtual) * *size)
	fs.AddExisting("/in/web", w.TotalVirtual)
	q.Input = w.Input("/in/web", len(fs.Lookup("/in/web").Blocks))

	factory := spill.DiskFactory()
	mode := "disk"
	if *useSponge {
		factory = spill.SpongeFactory(svc)
		mode = "SpongeFiles"
	}
	conf := q.Compile(cfg.ReduceHeap, factory)
	if *reducers > 0 {
		conf.NumReducers = *reducers
	} else {
		conf.NumReducers = *workers
	}

	out := map[string][]pig.Tuple{}
	inner := conf.Reduce
	conf.Reduce = func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
		inner(ctx, key, vals, func(k, v []byte) {
			out[string(k)] = append(out[string(k)], pig.DecodeTuple(v))
			emit(k, v)
		})
	}
	var res *mapreduce.JobResult
	sim.Spawn("driver", func(p *simtime.Proc) {
		res = eng.Submit(conf).Wait(p)
	})
	if _, err := sim.Run(); err != nil {
		fatal(err)
	}
	if res.Failed {
		fatal(fmt.Errorf("pigrun: job failed"))
	}

	fmt.Printf("%s: %.1f s with %s spilling (%d groups)\n",
		q.Name, res.Duration().Seconds(), mode, len(out))
	if st := res.Straggler(); st != nil {
		fmt.Printf("straggler: input %s, spilled %s in %d chunks\n\n",
			bench.HumanBytes(float64(st.InputVirtual)),
			bench.HumanBytes(float64(st.Spill.BytesReal*c.Cfg.Scale)),
			st.Spill.Chunks)
	}
	groups := make([]string, 0, len(out))
	for g := range out {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		fmt.Printf("%s:\n", g)
		for _, tu := range out[g] {
			fmt.Printf("  %v\n", []pig.Value(tu))
		}
	}
}

func readScript(arg string) (string, error) {
	if arg == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(arg)
	return string(b), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
