package sponge

import (
	"fmt"
	"math/rand"
	"testing"

	"spongefiles/internal/cluster"
	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
)

// One script of tracker events — a server's pool filling or draining, a
// server cut off and healed, a node's death, a poll cycle, the tracker's
// crash and the watchdog's cold election — played to the simulated
// tracker and to a tableModel, which must show the same observable state
// after every step: where the tracker runs, its term, and the free list
// it answers with.
//
// The model's rules are the driver's:
//   - a poll cycle sets every server's row to its pool's free count;
//   - a dead server advertises 0 on every cycle, whatever its pool
//     holds;
//   - a poll that fails (the server is cut off, or the tracker's own host
//     is) advertises 0 — the tracker's poll of its own host is loopback
//     and always gets through;
//   - the election lands on the lowest-numbered server that is not
//     dead, under the dead tracker's term plus one, and polls every
//     server before it answers.

type scriptOp int

const (
	opPool      scriptOp = iota // server key's pool has free chunks free
	opCut                       // server key stops answering
	opHeal                      // server key answers again
	opKill                      // node key dies (Service.FailNode)
	opCycle                     // the tracker polls every server
	opFail                      // the tracker's process dies
	opExpire                    // the watchdog notices: a cold election installs a successor
	scriptNodes = 4
	scriptPool  = 4 // chunks per server
)

type scriptStep struct {
	op   scriptOp
	key  int
	free int
}

func (s scriptStep) String() string {
	switch s.op {
	case opPool:
		return fmt.Sprintf("pool %d has %d free", s.key, s.free)
	case opCut:
		return fmt.Sprintf("cut server %d", s.key)
	case opHeal:
		return fmt.Sprintf("heal server %d", s.key)
	case opKill:
		return fmt.Sprintf("node %d dies", s.key)
	case opCycle:
		return "poll cycle"
	case opFail:
		return "tracker dies"
	}
	return "cold election"
}

// trackerScript is the fixed opening — every rule once, in an order a
// reader can follow — then a seeded tail of the same events at random.
// Node 0 dies in the opening and the tail kills no other, so an election
// always has somewhere to land.
func trackerScript(seed int64) []scriptStep {
	steps := []scriptStep{
		{op: opCycle},
		{op: opPool, key: 2, free: 1},
		{op: opCycle}, // 0, 1, 3 tie at 4 free (key order), then 2
		{op: opCut, key: 3},
		{op: opCycle}, // the poll fails: 3 advertises nothing
		{op: opHeal, key: 3},
		{op: opKill, key: 0}, // the tracker's own host
		{op: opExpire},       // skips dead 0: node 1, epoch 2
		{op: opCycle},        // 0's pool still has 4 free, but it advertises nothing
		{op: opPool, key: 3, free: 2},
		{op: opCycle},       // ... on every cycle
		{op: opCut, key: 1}, // the tracker's host: every other poll fails
		{op: opCycle},
		{op: opHeal, key: 1},
		{op: opPool, key: 1, free: 0},
		{op: opFail},
		{op: opExpire}, // node 1 again, epoch 3
	}
	rng := rand.New(rand.NewSource(seed))
	var cut [scriptNodes]bool
	down := false
	for i := 0; i < 40; i++ {
		key := rng.Intn(scriptNodes)
		switch op := rng.Intn(8); {
		case op < 2:
			key = 1 + key%(scriptNodes-1) // a live pool
			steps = append(steps, scriptStep{op: opPool, key: key, free: rng.Intn(scriptPool + 1)})
		case op < 5 && down:
			steps = append(steps, scriptStep{op: opExpire})
			down = false
		case op < 5:
			steps = append(steps, scriptStep{op: opCycle})
		case op < 7:
			s := scriptStep{op: opCut, key: key}
			if cut[key] {
				s.op = opHeal
			}
			steps = append(steps, s)
			cut[key] = !cut[key]
		case !down:
			steps = append(steps, scriptStep{op: opFail})
			down = true
		}
	}
	if down {
		steps = append(steps, scriptStep{op: opExpire})
	}
	return steps
}

// scriptView is what the script compares after a step: everything a
// client of the tracker can see. Rows are "key:free" in answer order.
type scriptView struct {
	Down  bool
	Node  int
	Epoch int64
	Rows  []string
}

func (v scriptView) String() string {
	if v.Down {
		return "tracker down"
	}
	return fmt.Sprintf("tracker on node %d epoch %d: %v", v.Node, v.Epoch, v.Rows)
}

// setPoolFree allocates or frees chunks until the pool has free free.
// held is the handles it has allocated in the pool and not yet freed.
func setPoolFree(t *testing.T, pool *Pool, owner TaskID, held *[]int, free int) {
	t.Helper()
	for pool.Free() > free {
		h, err := pool.Alloc(owner)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		*held = append(*held, h)
	}
	for pool.Free() < free {
		last := len(*held) - 1
		pool.FreeChunk((*held)[last])
		*held = (*held)[:last]
	}
}

// runScriptSim plays the script against the simulated tracker. A cut
// server has every link to it cut; a heal restores those whose other
// end is not cut itself. The pools' chunks belong to a task registered
// on node 0, so the garbage collector keeps them. Events
// happen between the tracker loop's cycles: a cycle step sleeps until
// the tracker's poll count moves, an election step until the watchdog's
// failover count does, so its view is the election's own poll. The
// loop's next cycle may begin the moment the successor is installed, so
// after an election's view the script also waits for that cycle to end
// before its next event. Cycles are ten seconds apart and the events
// between them take milliseconds, so none goes unscripted.
func runScriptSim(t *testing.T, steps []scriptStep) []scriptView {
	ccfg := cluster.PaperConfig()
	ccfg.Workers = scriptNodes
	ccfg.SpongeMemory = scriptPool * media.MB
	sim := simtime.New()
	defer sim.Close()
	c := cluster.New(sim, ccfg)
	scfg := DefaultConfig()
	scfg.PollInterval = 10 * simtime.Second
	svc := Start(c, scfg)
	faults := NewFaultTransport(svc.Transport(), FaultConfig{})
	svc.SetTransport(faults)
	owner := TaskID{Node: 0, PID: 1}
	svc.Servers[owner.Node].RegisterTask(owner.PID)
	var (
		held [scriptNodes][]int
		cut  [scriptNodes]bool
	)

	var out []scriptView
	sim.Spawn("script", func(p *simtime.Proc) {
		// awaitMove sleeps until the counter series id moves.
		awaitMove := func(id string) {
			for n := metricOf(t, svc, id); metricOf(t, svc, id) == n; {
				p.Sleep(simtime.Second)
			}
		}
		view := func() scriptView {
			tr := svc.Tracker
			if tr.unavailable() {
				return scriptView{Down: true}
			}
			v := scriptView{Node: tr.Node().ID, Epoch: tr.LeaderEpoch()}
			for _, r := range tr.Query(p, c.Nodes[scriptNodes-1]) {
				v.Rows = append(v.Rows, fmt.Sprintf("%d:%d", r.Key, r.Free))
			}
			return v
		}
		for _, s := range steps {
			switch s.op {
			case opPool:
				setPoolFree(t, svc.Servers[s.key].Pool(), owner, &held[s.key], s.free)
			case opCut, opHeal:
				cut[s.key] = s.op == opCut
				for k := range cut {
					switch {
					case k == s.key:
					case cut[s.key]:
						faults.Cut(s.key, k)
					case !cut[k]:
						faults.Heal(s.key, k)
					}
				}
			case opKill:
				svc.FailNode(s.key)
			case opCycle:
				awaitMove("sponge_tracker_polls_total")
			case opFail:
				svc.FailTracker()
			case opExpire:
				awaitMove("sponge_tracker_failovers_total")
			}
			out = append(out, view())
			if s.op == opExpire {
				awaitMove("sponge_tracker_polls_total")
			}
		}
	})
	sim.MustRun()
	return out
}

// runScriptModel plays the script against a tableModel, with the
// servers' pools, reachability and deaths as three arrays.
func runScriptModel(steps []scriptStep) []scriptView {
	var (
		pool  [scriptNodes]int
		cut   [scriptNodes]bool
		dead  [scriptNodes]bool
		tab   = tableModel{}
		host  = 0
		epoch = int64(1)
		down  = false
	)
	for k := range pool {
		pool[k] = scriptPool
		tab[k] = scriptPool
	}
	cycle := func() {
		for k, free := range pool {
			if dead[k] || k != host && (cut[k] || cut[host]) {
				free = 0
			}
			tab[k] = free
		}
	}
	var out []scriptView
	for _, s := range steps {
		switch s.op {
		case opPool:
			pool[s.key] = s.free
		case opCut, opHeal:
			cut[s.key] = s.op == opCut
		case opKill:
			dead[s.key] = true
			down = down || s.key == host
		case opCycle:
			cycle()
		case opFail:
			down = true
		case opExpire:
			for host = 0; dead[host]; host++ {
			}
			epoch++
			down = false
			cycle() // sets every row: nothing of the dead tracker's table shows
		}
		if down {
			out = append(out, scriptView{Down: true})
			continue
		}
		v := scriptView{Node: host, Epoch: epoch}
		for _, r := range tab.query() {
			v.Rows = append(v.Rows, fmt.Sprintf("%d:%d", r.Key, r.Free))
		}
		out = append(out, v)
	}
	return out
}

func TestTrackerScript(t *testing.T) {
	var simRes []scriptView
	for _, seed := range []int64{20, 4, 1} { // the tails differ; the last run's opening is spot-checked below
		steps := trackerScript(seed)
		simRes = runScriptSim(t, steps)
		model := runScriptModel(steps)
		if len(simRes) != len(steps) {
			t.Fatalf("seed %d: script has %d steps; sim ran %d", seed, len(steps), len(simRes))
		}
		for i, s := range steps {
			if a, b := simRes[i].String(), model[i].String(); a != b {
				t.Fatalf("seed %d step %d (%v): the tracker and the model disagree\n sim:   %s\n model: %s", seed, i, s, a, b)
			}
		}
	}
	steps := trackerScript(1)

	// The agreement is about something: spot-check the opening against
	// what the rules say, by hand.
	for _, c := range []struct {
		step int
		want string
	}{
		{2, "tracker on node 0 epoch 1: [0:4 1:4 3:4 2:1]"},
		{4, "tracker on node 0 epoch 1: [0:4 1:4 2:1]"},
		{6, "tracker down"},
		{7, "tracker on node 1 epoch 2: [1:4 3:4 2:1]"}, // the election's own poll: without it, empty
		{8, "tracker on node 1 epoch 2: [1:4 3:4 2:1]"},
		{10, "tracker on node 1 epoch 2: [1:4 3:2 2:1]"},
		{12, "tracker on node 1 epoch 2: [1:4]"},
		{16, "tracker on node 1 epoch 3: [3:2 2:1]"},
	} {
		if got := simRes[c.step].String(); got != c.want {
			t.Errorf("step %d (%v):\n got  %s\n want %s", c.step, steps[c.step], got, c.want)
		}
	}
}
