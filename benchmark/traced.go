package main

import (
	"math"
	"os"
)

// tracedShare is the part of a run's iteration count that a --trace run
// executes traced, and again untraced; the rest of the time goes to the
// probes.
const tracedShare = 4

// runTraced is the timed part of a --trace run: iterations alternately
// untraced and traced, a quarter of the run's count each — alternating
// so that drift over the run (a growing heap, say) reads the same on
// both sides of trace.overhead_pct — then the direct probes. It fills
// out.metrics with every per-layer metric.
func runTraced(o runOptions, e *env, inst instance, out *outcome, iters int) error {
	tr := e.tr
	m := out.metrics
	n := (iters + tracedShare - 1) / tracedShare
	inst.markBase()
	self := os.Getpid()
	var client, daemon procCounters
	var base, sec section
	from := tr.iter + 1
	for i := 0; i < n; i++ {
		tr.on = false
		base.add(measure(e, inst, out, 1, o.seconds))
		client0, daemon0 := readProc(self), readProcs(inst.pids())
		tr.on = true
		sec.add(measure(e, inst, out, 1, o.seconds))
		client = client.add(readProc(self).sub(client0))
		daemon = daemon.add(readProcs(inst.pids()).sub(daemon0))
	}
	tr.on = false
	to := tr.iter + 1

	// What the workload itself counts, per iteration (wire tiers, job
	// closures, macro jobs); "_payload_bytes" is the chunk bytes the
	// traced iterations moved, the base of a ratio below.
	if err := inst.finish(m); err != nil {
		out.op(err)
	}
	payload := m["_payload_bytes"]
	delete(m, "_payload_bytes")

	perIter := func(v float64) float64 { return v / float64(n) }
	total, selfNs, count := tr.sums(from, to)
	secs := func(ns int64) float64 { return perIter(float64(ns) / 1e9) }

	traced, untraced := summarise(sec.walls), summarise(base.walls)
	m["trace.iters_n"] = float64(n)
	m["trace.iter_wall_s"] = traced.Median
	m["trace.overhead_pct"] = 100 * (traced.Median - untraced.Median) / untraced.Median
	iterNs := total["iteration"]

	// scenario / workload: the set-up cycles, as medians over the cycles.
	for metric, name := range map[string]string{
		"harness.spawn_s":    "harness.spawn",
		"harness.stop_s":     "harness.stop",
		"workload.gen_s":     "workload.gen",
		"setup.first_iter_s": "setup.first_iter",
		"warmup_s":           "warmup",
	} {
		m[metric] = quantile(tr.durations(name, -1, 0), 0.5) / 1e9
	}

	// sponge file layer (the spill workloads' client).
	fileOps := []string{"file.write", "file.close", "file.read", "file.delete"}
	var fileSelf int64
	for _, op := range fileOps {
		m[op+"_s"] = secs(total[op])
		fileSelf += selfNs[op]
	}
	m["file.self_s"] = secs(fileSelf)

	// sponge transport seam.
	var transportNs int64
	for _, op := range []string{"allocwrite", "read", "free", "freespace"} {
		m["transport."+op+"_s"] = secs(total["transport."+op])
		transportNs += total["transport."+op]
	}
	for _, op := range []string{"allocwrite", "read", "free"} {
		m["transport."+op+"_n"] = perIter(float64(count["transport."+op]))
	}
	for _, op := range []string{"allocwrite", "read"} {
		d := tr.durations("transport."+op, from, to)
		m["transport."+op+"_p50_us"] = quantile(d, 0.5) / 1e3
		m["transport."+op+"_p99_us"] = quantile(d, 0.99) / 1e3
	}

	// mapreduce / spill (the job workload). A spill span's own time is
	// what tick attributed to its process; the wire time of the
	// exchanges it caused is exact and added whole.
	spillWrite := selfNs["spill.create"] + selfNs["spill.write"] + selfNs["spill.close"] + selfNs["spill.delete"]
	m["spill.files_n"] = perIter(float64(count["spill.create"]))
	if count["spill.create"] > 0 {
		m["spill.write_s"] = secs(spillWrite + total["transport.allocwrite"] + total["transport.free"])
		m["spill.read_s"] = secs(selfNs["spill.read"] + total["transport.read"])
		named := m["mr.gen_s"] + m["mr.map_fn_s"] + m["mr.combine_fn_s"] + m["mr.reduce_fn_s"] + m["spill.write_s"] + m["spill.read_s"]
		m["mr.engine_self_s"] = secs(iterNs) - named
	}

	// Process split: what the client and the daemons each spent.
	chunks := float64(count["transport.allocwrite"])
	perChunk := func(v float64) float64 {
		if chunks == 0 {
			return 0
		}
		return v / chunks
	}
	m["client.cpu_s_per_iter"] = perIter(client.cpuSeconds)
	m["daemon.cpu_s_per_iter"] = perIter(daemon.cpuSeconds)
	m["client.syscalls_per_chunk"] = perChunk(client.syscalls)
	m["daemon.syscalls_per_chunk"] = perChunk(daemon.syscalls)
	m["client.ctxsw_per_chunk"] = perChunk(client.ctxSwitch)
	m["daemon.ctxsw_per_chunk"] = perChunk(daemon.ctxSwitch)
	if payload > 0 {
		m["wire.socket_bytes_per_payload_byte"] = daemon.ioBytes / payload
	}
	for _, pid := range inst.pids() {
		m["daemon.peak_rss_mib"] += hwmMiB(pid)
	}

	// How much of the traced iteration the named layers account for:
	// file.self + transport on the spill workloads, closures + spill +
	// engine on the job workload, the three jobs on macro-sim.
	var covered float64
	switch {
	case count["file.write"] > 0:
		covered = float64(fileSelf + transportNs)
	case count["spill.create"] > 0:
		covered = float64(iterNs) // mr.engine_self_s is the remainder by definition
	default:
		covered = float64(total["macro.median"] + total["macro.anchortext"] + total["macro.spam"])
	}
	m["trace.span_sum_pct"] = 100 * covered / float64(iterNs)

	return runProbes(e, m)
}

// fillMissing gives every per-layer metric a value on every workload: a
// layer the workload does not touch reads 0.
func fillMissing(m map[string]float64, defs []metricDef) {
	for _, d := range defs {
		if v, ok := m[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			m[d.Name] = 0
		}
	}
}
