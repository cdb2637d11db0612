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
// server cut off and healed, a tracker cycle (poll + handoff), pushed
// deltas, pushed state, the leader's death, the standby's promotion —
// played to the simulated tracker pair and to two tableModels, which
// must show the same observable state after every step: the free list
// each tracker answers with, its term, its role, and its applied/stale
// delta counts. Tracker 0 starts as leader (node 0), tracker 1 as its
// standby (node 1).
//
// What the model has no notion of stays out of the script: the refusal
// to advertise a drained node (TestDrainedNodeCannotReadvertiseByDelta).

type scriptOp int

const (
	opPool      scriptOp = iota // server key's pool has free chunks free
	opCut                       // server key stops answering
	opHeal                      // server key answers again
	opCycle                     // the leader polls every server, then hands off
	opDelta                     // a report (key, seq, free) pushed at tracker on
	opPush                      // state (epoch, rows) pushed at tracker on
	opFail                      // the leader's process dies
	opExpire                    // the failure is noticed: the standby takes over and runs its first cycle
	scriptNodes = 4
	scriptPool  = 4 // chunks per server
)

type scriptStep struct {
	op    scriptOp
	on    int // tracker: 0 the first leader, 1 its standby
	key   int
	seq   uint64
	free  int
	epoch uint64
	rows  []FreeRow
}

func (s scriptStep) String() string {
	switch s.op {
	case opPool:
		return fmt.Sprintf("pool %d has %d free", s.key, s.free)
	case opCut:
		return fmt.Sprintf("cut server %d", s.key)
	case opHeal:
		return fmt.Sprintf("heal server %d", s.key)
	case opCycle:
		return "leader cycle"
	case opDelta:
		return fmt.Sprintf("delta to tracker %d: server %d seq %d free %d", s.on, s.key, s.seq, s.free)
	case opPush:
		return fmt.Sprintf("push to tracker %d: epoch %d rows %v", s.on, s.epoch, s.rows)
	case opFail:
		return "leader dies"
	}
	return "standby takes over"
}

// trackerScript is the fixed opening — every rule once, in an order a
// reader can follow — then a seeded tail of the same events at random.
func trackerScript(seed int64) []scriptStep {
	row := func(k, free int, seq uint64) FreeRow {
		return FreeRow{Key: k, Free: free, Seq: seq}
	}
	steps := []scriptStep{
		{op: opCycle},
		{op: opPool, key: 2, free: 1},
		{op: opCycle}, // 0, 1, 3 tie at 4 free (key order), then 2
		{op: opDelta, key: 3, seq: 5, free: 2},
		{op: opDelta, key: 3, seq: 5, free: 9}, // duplicate: stale
		{op: opDelta, key: 3, seq: 4, free: 9}, // reordered: stale
		{op: opCut, key: 3},
		{op: opCycle},                          // the poll fails: 3 advertises nothing
		{op: opDelta, key: 3, seq: 6, free: 3}, // a push gets through where the poll did not
		{op: opHeal, key: 3},
		{op: opPool, key: 3, free: 2},
		{op: opCycle},
		{op: opPush, on: 0, epoch: 7, rows: []FreeRow{row(1, 0, 0)}}, // a leader follows nobody
		{op: opPush, on: 1, epoch: 0, rows: []FreeRow{row(1, 0, 0)}}, // an older term
		{op: opPush, on: 1, epoch: 1, rows: []FreeRow{row(2, 3, 3)}}, // the current term: taken
		{op: opCycle},                          // the real leader's handoff overwrites it
		{op: opDelta, key: 1, seq: 2, free: 1}, // never handed off: dies with the leader
		{op: opFail},
		{op: opExpire},
		{op: opDelta, on: 1, key: 1, seq: 2, free: 1}, // fresh to the successor
		{op: opDelta, on: 1, key: 3, seq: 6, free: 1}, // stale: acked sequences were handed off
		{op: opPush, on: 1, epoch: 9, rows: []FreeRow{row(0, 0, 0)}},
		{op: opPool, key: 0, free: 0},
		{op: opCycle}, // the successor polls the servers it inherited
	}
	rng := rand.New(rand.NewSource(seed))
	cut := map[int]bool{}
	for i := 0; i < 40; i++ {
		key := 2 + rng.Intn(2) // the trackers' own hosts stay reachable
		switch op := rng.Intn(10); {
		case op < 2:
			steps = append(steps, scriptStep{op: opPool, key: rng.Intn(scriptNodes), free: rng.Intn(scriptPool + 1)})
		case op < 4:
			steps = append(steps, scriptStep{op: opCycle})
		case op < 8:
			steps = append(steps, scriptStep{op: opDelta, on: 1, key: rng.Intn(scriptNodes), seq: uint64(rng.Intn(10)), free: rng.Intn(scriptPool + 1)})
		case op < 9:
			steps = append(steps, scriptStep{op: opPush, on: 1, epoch: uint64(rng.Intn(4)), rows: []FreeRow{row(key, 1, 1)}})
		case !cut[key]:
			steps = append(steps, scriptStep{op: opCut, key: key})
			cut[key] = true
		default:
			steps = append(steps, scriptStep{op: opHeal, key: key})
			cut[key] = false
		}
	}
	return steps
}

// trackerView is what the script compares: everything a client of a
// tracker can see. Rows are "key:free" in answer order.
type trackerView struct {
	Rows           []string
	Epoch          uint64
	Leader         bool
	Applied, Stale int64
}

// scriptResult is one step's outcome: whether the pushed delta or state
// was taken (false for other ops), and each tracker's view — a nil view
// once the tracker is dead.
type scriptResult struct {
	Took  bool
	Views [2]*trackerView
}

func (r scriptResult) String() string {
	s := fmt.Sprintf("took=%v", r.Took)
	for i, v := range r.Views {
		if v == nil {
			s += fmt.Sprintf(" | tracker %d dead", i)
			continue
		}
		s += fmt.Sprintf(" | tracker %d: %v epoch %d leader %v applied %d stale %d", i, v.Rows, v.Epoch, v.Leader, v.Applied, v.Stale)
	}
	return s
}

// setPoolFree allocates or frees chunks until the pool has free free.
func setPoolFree(t *testing.T, pool *Pool, owner TaskID, free int) {
	t.Helper()
	for pool.Free() > free {
		if _, err := pool.Alloc(owner); err != nil {
			t.Fatalf("alloc: %v", err)
		}
	}
	for _, h := range pool.LiveHandles() {
		if pool.Free() >= free {
			break
		}
		pool.FreeChunk(h)
	}
}

// runScriptSim plays the script against the simulated tracker. Events
// happen between the tracker loop's cycles: the cycle step sleeps until
// the leader's poll count moves and its handoff has landed.
func runScriptSim(t *testing.T, steps []scriptStep) []scriptResult {
	ccfg := cluster.PaperConfig()
	ccfg.Workers = scriptNodes
	ccfg.SpongeMemory = scriptPool * media.MB
	sim := simtime.New()
	defer sim.Close()
	c := cluster.New(sim, ccfg)
	scfg := DefaultConfig()
	scfg.TrackerReplicas = 1
	scfg.PollInterval = 10 * simtime.Second
	scfg.GCInterval = 1000 * simtime.Hour
	svc := Start(c, scfg)
	faults := NewFaultTransport(svc.Transport(), FaultConfig{})
	svc.SetTransport(faults)
	trackers := [2]*Tracker{svc.Tracker, svc.Standbys()[0]}
	owner := TaskID{Node: 0, PID: 1}

	var out []scriptResult
	sim.Spawn("script", func(p *simtime.Proc) {
		leader, dead := 0, -1
		// awaitCycle sleeps until tr completes its next poll and the
		// handoff that follows it. Cycles are ten seconds apart and the
		// events between them take milliseconds, so none goes unscripted.
		awaitCycle := func(tr *Tracker) {
			for polls, _ := tr.Stats(); ; p.Sleep(simtime.Second) {
				if now, _ := tr.Stats(); now > polls {
					break
				}
			}
			p.Sleep(simtime.Second)
		}
		for _, s := range steps {
			var res scriptResult
			switch s.op {
			case opPool:
				setPoolFree(t, svc.Servers[s.key].Pool(), owner, s.free)
			case opCut:
				faults.IsolateNode(s.key)
			case opHeal:
				faults.RejoinNode(s.key)
			case opCycle:
				awaitCycle(trackers[leader])
			case opDelta:
				res.Took = trackers[s.on].ReportDelta(p, c.Nodes[s.key], s.seq, s.free)
			case opPush:
				res.Took = trackers[s.on].InstallState(p, c.Nodes[scriptNodes-1], s.epoch, s.rows)
			case opFail:
				svc.FailTracker()
				dead = leader
			case opExpire:
				// The watchdog promotes on its next tick, and the tracker
				// loop's next wake-up after that is the successor's first
				// cycle; no script event falls in between.
				leader = 1
				awaitCycle(trackers[leader])
				if svc.Tracker != trackers[1] || svc.Failovers() != 1 {
					t.Errorf("sim: after %d failovers the tracker is on node %d, not the promoted standby", svc.Failovers(), svc.Tracker.Node().ID)
				}
			}
			for i, tr := range trackers {
				if i == dead {
					continue
				}
				v := &trackerView{Epoch: uint64(tr.LeaderEpoch()), Leader: tr.IsLeader()}
				for _, r := range tr.Query(p, c.Nodes[scriptNodes-1]) {
					v.Rows = append(v.Rows, fmt.Sprintf("%d:%d", r.Key, r.Free))
				}
				v.Applied, v.Stale = tr.DeltaStats()
				res.Views[i] = v
			}
			out = append(out, res)
		}
	})
	sim.MustRun()
	return out
}

// runScriptModel plays the script against two tableModels, with the
// servers' pools and reachability as two arrays.
func runScriptModel(steps []scriptStep) []scriptResult {
	var (
		pool   [scriptNodes]int
		cut    [scriptNodes]bool
		tabs   = [2]*tableModel{newTableModel(), newTableModel()}
		leader = 0
		dead   = -1
	)
	for k := range pool {
		pool[k] = scriptPool
	}
	tabs[0].promote()
	cycle := func() {
		for k, free := range pool {
			if cut[k] {
				free = 0 // the poll fails: the server advertises nothing
			}
			tabs[leader].free[k] = free
		}
		if leader == 0 {
			tabs[1].install(tabs[0].epoch, tabs[0].rows())
		}
	}
	var out []scriptResult
	for _, s := range steps {
		var res scriptResult
		switch s.op {
		case opPool:
			pool[s.key] = s.free
		case opCut, opHeal:
			cut[s.key] = s.op == opCut
		case opCycle:
			cycle()
		case opDelta:
			tabs[s.on].delta(s.key, s.seq, s.free, true)
			res.Took = true // a live tracker holds the report's state either way
		case opPush:
			res.Took = tabs[s.on].install(s.epoch, s.rows)
		case opFail:
			dead = leader
		case opExpire:
			leader = 1
			tabs[1].promote()
			cycle()
		}
		for i, m := range tabs {
			if i == dead {
				continue
			}
			v := &trackerView{Epoch: m.epoch, Leader: m.leader, Applied: m.applied, Stale: m.stale}
			for _, r := range m.query() {
				v.Rows = append(v.Rows, fmt.Sprintf("%d:%d", r.Key, r.Free))
			}
			res.Views[i] = v
		}
		out = append(out, res)
	}
	return out
}

func TestTrackerScript(t *testing.T) {
	var simRes []scriptResult
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
		{2, "took=false | tracker 0: [0:4 1:4 3:4 2:1] epoch 1 leader true applied 0 stale 0 | tracker 1: [0:4 1:4 3:4 2:1] epoch 1 leader false applied 0 stale 0"},
		{5, "took=true | tracker 0: [0:4 1:4 3:2 2:1] epoch 1 leader true applied 1 stale 2 | tracker 1: [0:4 1:4 3:4 2:1] epoch 1 leader false applied 0 stale 0"},
		{7, "took=false | tracker 0: [0:4 1:4 2:1] epoch 1 leader true applied 1 stale 2 | tracker 1: [0:4 1:4 2:1] epoch 1 leader false applied 0 stale 0"},
		{12, "took=false | tracker 0: [0:4 1:4 3:2 2:1] epoch 1 leader true applied 2 stale 2 | tracker 1: [0:4 1:4 3:2 2:1] epoch 1 leader false applied 0 stale 0"},
		{13, "took=false | tracker 0: [0:4 1:4 3:2 2:1] epoch 1 leader true applied 2 stale 2 | tracker 1: [0:4 1:4 3:2 2:1] epoch 1 leader false applied 0 stale 0"},
		{14, "took=true | tracker 0: [0:4 1:4 3:2 2:1] epoch 1 leader true applied 2 stale 2 | tracker 1: [0:4 1:4 2:3 3:2] epoch 1 leader false applied 0 stale 0"},
		{18, "took=false | tracker 0 dead | tracker 1: [0:4 1:4 3:2 2:1] epoch 2 leader true applied 0 stale 0"},
		{20, "took=true | tracker 0 dead | tracker 1: [0:4 3:2 1:1 2:1] epoch 2 leader true applied 1 stale 1"},
		{23, "took=false | tracker 0 dead | tracker 1: [1:4 3:2 2:1] epoch 2 leader true applied 1 stale 1"},
	} {
		if got := simRes[c.step].String(); got != c.want {
			t.Errorf("step %d (%v):\n got  %s\n want %s", c.step, steps[c.step], got, c.want)
		}
	}
}
