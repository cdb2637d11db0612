package wire

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"spongefiles/internal/cluster"
	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
	"spongefiles/internal/sponge"
)

// One script, both trackers. The simulated tracker (sponge.Tracker under
// simtime) and the TCP one (wire.Tracker behind a TrackerServer) are two
// drivers of the same sponge.FreeTable; this test feeds both the same
// sequence of events — a server's pool filling or draining, a server
// cut off and healed, a tracker cycle (poll + handoff), pushed deltas,
// pushed state, the leader's death, the standby's promotion — and
// requires the same observable state from both after every step: the
// free list each tracker answers with, its term, its role, and its
// applied/stale delta counts. Node i in the simulator is server i's
// listen address over TCP; tracker 0 starts as leader (node 0), tracker
// 1 as its standby (node 1).
//
// What only one driver does stays out of the script: the simulator's
// refusal to advertise a drained node (the TCP tracker has no
// membership; TestDrainedNodeCannotReadvertiseByDelta in package sponge
// covers it) and the TCP reporter's rotation through a tracker group.

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
	rows  []sponge.FreeRow[int]
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
	row := func(k, free int, seq uint64) sponge.FreeRow[int] {
		return sponge.FreeRow[int]{Key: k, Free: free, Seq: seq}
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
		{op: opPush, on: 0, epoch: 7, rows: []sponge.FreeRow[int]{row(1, 0, 0)}}, // a leader follows nobody
		{op: opPush, on: 1, epoch: 0, rows: []sponge.FreeRow[int]{row(1, 0, 0)}}, // an older term
		{op: opPush, on: 1, epoch: 1, rows: []sponge.FreeRow[int]{row(2, 3, 3)}}, // the current term: taken
		{op: opCycle},                          // the real leader's handoff overwrites it
		{op: opDelta, key: 1, seq: 2, free: 1}, // never handed off: dies with the leader
		{op: opFail},
		{op: opExpire},
		{op: opDelta, on: 1, key: 1, seq: 2, free: 1}, // fresh to the successor
		{op: opDelta, on: 1, key: 3, seq: 6, free: 1}, // stale: acked sequences were handed off
		{op: opPush, on: 1, epoch: 9, rows: []sponge.FreeRow[int]{row(0, 0, 0)}},
		{op: opPool, key: 0, free: 0},
		{op: opCycle}, // the successor polls the servers it inherited
	}
	// The tail keeps one driver difference out of the comparison: a TCP
	// tracker learns that a cached connection died only by polling over
	// it, and redials on the cycle after, where the simulator has no
	// connections to lose. So a cut server is always polled once before
	// it heals.
	rng := rand.New(rand.NewSource(seed))
	const healthy, cut, cutAndPolled = 0, 1, 2
	state := map[int]int{}
	cycle := func() {
		steps = append(steps, scriptStep{op: opCycle})
		for k, st := range state {
			if st == cut {
				state[k] = cutAndPolled
			}
		}
	}
	for i := 0; i < 40; i++ {
		key := 2 + rng.Intn(2) // the trackers' own hosts stay reachable
		switch op := rng.Intn(10); {
		case op < 2:
			steps = append(steps, scriptStep{op: opPool, key: rng.Intn(scriptNodes), free: rng.Intn(scriptPool + 1)})
		case op < 4:
			cycle()
		case op < 8:
			steps = append(steps, scriptStep{op: opDelta, on: 1, key: rng.Intn(scriptNodes), seq: uint64(rng.Intn(10)), free: rng.Intn(scriptPool + 1)})
		case op < 9:
			steps = append(steps, scriptStep{op: opPush, on: 1, epoch: uint64(rng.Intn(4)), rows: []sponge.FreeRow[int]{row(key, 1, 1)}})
		case state[key] == healthy:
			steps = append(steps, scriptStep{op: opCut, key: key})
			state[key] = cut
		default:
			if state[key] == cut {
				cycle()
			}
			steps = append(steps, scriptStep{op: opHeal, key: key})
			state[key] = healthy
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
func setPoolFree(t *testing.T, pool *sponge.Pool, owner sponge.TaskID, free int) {
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
	scfg := sponge.DefaultConfig()
	scfg.TrackerReplicas = 1
	scfg.PollInterval = 10 * simtime.Second
	scfg.GCInterval = 1000 * simtime.Hour
	svc := sponge.Start(c, scfg)
	faults := sponge.NewFaultTransport(svc.Transport(), sponge.FaultConfig{})
	svc.SetTransport(faults)
	trackers := [2]*sponge.Tracker{svc.Tracker, svc.Standbys()[0]}
	owner := sponge.TaskID{Node: 0, PID: 1}

	var out []scriptResult
	sim.Spawn("script", func(p *simtime.Proc) {
		leader, dead := 0, -1
		// awaitCycle sleeps until tr completes its next poll and the
		// handoff that follows it. Cycles are ten seconds apart and the
		// events between them take milliseconds, so none goes unscripted.
		awaitCycle := func(tr *sponge.Tracker) {
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

// runScriptWire plays the script against two TCP trackers. Their loops
// are parked (a one-hour interval) and the script calls the cycle and
// the lease check itself, so the order of events is the script's; every
// delta, state push, free list and role query crosses a real socket.
func runScriptWire(t *testing.T, steps []scriptStep) []scriptResult {
	owner := sponge.TaskID{Node: 0, PID: 1}
	var (
		pools   [scriptNodes]*sponge.Pool
		servers [scriptNodes]*Server
		addrs   []string
		index   = map[string]int{}
	)
	defer func() {
		for _, srv := range servers {
			if srv != nil {
				srv.Close()
			}
		}
	}()
	for i := range servers {
		srv, err := Serve(sponge.NewPool(64, scriptPool), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
	}
	// Ties in a free list break on the key, so server i must sort where
	// node i does: number the servers in address order.
	slices.SortFunc(servers[:], func(a, b *Server) int { return strings.Compare(a.Addr(), b.Addr()) })
	for i, srv := range servers {
		pools[i] = srv.pool
		addrs = append(addrs, srv.Addr())
		index[srv.Addr()] = i
	}

	standby := NewTrackerOptions(nil, TrackerOptions{Interval: time.Hour, Standby: true, Lease: time.Hour})
	defer standby.Close()
	ss, err := standby.Serve("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	first := NewTrackerOptions(addrs, TrackerOptions{Interval: time.Hour, Standbys: []string{ss.Addr()}})
	fs, err := first.Serve("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	trackers := [2]*Tracker{first, standby}
	var clients [2]*Client
	for i, addr := range []string{fs.Addr(), ss.Addr()} {
		if clients[i], err = Dial(addr); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
	}
	dead := -1
	defer func() {
		if dead != 0 {
			fs.Close()
			first.Close()
		}
	}()

	var out []scriptResult
	leader := 0
	for _, s := range steps {
		var res scriptResult
		switch s.op {
		case opPool:
			setPoolFree(t, pools[s.key], owner, s.free)
		case opCut:
			servers[s.key].Close()
			servers[s.key] = nil
		case opHeal:
			if servers[s.key], err = Serve(pools[s.key], addrs[s.key]); err != nil {
				t.Fatalf("restart server %d: %v", s.key, err)
			}
		case opCycle:
			trackers[leader].pollOnce()
			trackers[leader].handoff()
		case opDelta:
			_, err := clients[s.on].ReportDelta(addrs[s.key], s.seq, s.free)
			res.Took = err == nil
		case opPush:
			rows := make([]TrackerEntry, len(s.rows))
			for i, r := range s.rows {
				rows[i] = TrackerEntry{Key: addrs[r.Key], Free: r.Free, Seq: r.Seq}
			}
			res.Took = clients[s.on].PushTrackerState(s.epoch, rows) == nil
		case opFail:
			fs.Close()
			first.Close()
			dead = leader
		case opExpire:
			standby.mu.Lock()
			standby.lastPush = time.Time{} // the lease ran out
			standby.mu.Unlock()
			standby.checkLease()
			leader = 1
			standby.pollOnce()
		}
		for i, tr := range trackers {
			if i == dead {
				continue
			}
			v := &trackerView{}
			entries, err := clients[i].FreeList()
			if err != nil {
				t.Fatalf("wire: free list from tracker %d: %v", i, err)
			}
			for _, e := range entries {
				v.Rows = append(v.Rows, fmt.Sprintf("%d:%d", index[e.Key], e.Free))
			}
			if v.Epoch, v.Leader, err = clients[i].TrackerInfo(); err != nil {
				t.Fatalf("wire: info from tracker %d: %v", i, err)
			}
			v.Applied, v.Stale = tr.DeltaStats()
			res.Views[i] = v
		}
		out = append(out, res)
	}
	return out
}

func TestTrackerScriptBothDrivers(t *testing.T) {
	var simRes []scriptResult
	for _, seed := range []int64{20, 4, 1} { // the tails differ; the last run's opening is spot-checked below
		steps := trackerScript(seed)
		simRes = runScriptSim(t, steps)
		wireRes := runScriptWire(t, steps)
		if len(simRes) != len(steps) || len(wireRes) != len(steps) {
			t.Fatalf("seed %d: script has %d steps; sim ran %d, wire ran %d", seed, len(steps), len(simRes), len(wireRes))
		}
		for i, s := range steps {
			if a, b := simRes[i].String(), wireRes[i].String(); a != b {
				t.Fatalf("seed %d step %d (%v): the two trackers disagree\n sim:  %s\n wire: %s", seed, i, s, a, b)
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
