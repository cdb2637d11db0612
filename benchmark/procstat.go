package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// Process-level counters read from /proc, the only view the benchmark
// has into the child daemons' share of the work. Anything unreadable
// (a sandbox hiding /proc/<pid>/io, say) reads as zero.

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// it is 100 on every Linux ABI Go supports.
const clockTick = 100

// procCounters is one snapshot of a process's cumulative counters.
type procCounters struct {
	cpuSeconds float64 // user + system, all threads
	syscalls   float64 // read- plus write-class system calls (syscr + syscw)
	ioBytes    float64 // bytes through read- and write-class calls (rchar + wchar)
	ctxSwitch  float64 // voluntary + involuntary, summed over threads
}

func (a procCounters) sub(b procCounters) procCounters {
	return procCounters{a.cpuSeconds - b.cpuSeconds, a.syscalls - b.syscalls, a.ioBytes - b.ioBytes, a.ctxSwitch - b.ctxSwitch}
}

func (a procCounters) add(b procCounters) procCounters {
	return procCounters{a.cpuSeconds + b.cpuSeconds, a.syscalls + b.syscalls, a.ioBytes + b.ioBytes, a.ctxSwitch + b.ctxSwitch}
}

// statusFields returns the "Key:\tvalue" pairs of a /proc status file.
func statusFields(path string) map[string]string {
	out := map[string]string{}
	data, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok {
			out[k] = strings.TrimSpace(v)
		}
	}
	return out
}

func atof(s string) float64 {
	v, _ := strconv.ParseFloat(strings.Fields(s + " 0")[0], 64)
	return v
}

func readProc(pid int) procCounters {
	var c procCounters
	dir := fmt.Sprintf("/proc/%d", pid)
	if data, err := os.ReadFile(dir + "/stat"); err == nil {
		// The command name may hold spaces; fields count from after ")".
		if i := strings.LastIndexByte(string(data), ')'); i >= 0 {
			f := strings.Fields(string(data)[i+1:])
			if len(f) > 14 {
				// utime, stime, and cutime, cstime: the workers a process
				// has waited for did its work too.
				c.cpuSeconds = (atof(f[11]) + atof(f[12]) + atof(f[13]) + atof(f[14])) / clockTick
			}
		}
	}
	io := statusFields(dir + "/io")
	c.syscalls = atof(io["syscr"]) + atof(io["syscw"])
	c.ioBytes = atof(io["rchar"]) + atof(io["wchar"])
	tasks, _ := filepath.Glob(dir + "/task/*/status")
	for _, t := range tasks {
		st := statusFields(t)
		c.ctxSwitch += atof(st["voluntary_ctxt_switches"]) + atof(st["nonvoluntary_ctxt_switches"])
	}
	return c
}

func readProcs(pids []int) procCounters {
	var sum procCounters
	for _, pid := range pids {
		sum = sum.add(readProc(pid))
	}
	return sum
}

// hwmMiB is a process's peak resident set (VmHWM) in MiB.
func hwmMiB(pid int) float64 {
	return atof(statusFields(fmt.Sprintf("/proc/%d/status", pid))["VmHWM"]) / 1024 // reported in kB
}

// peakRSSMiB sums VmHWM over this process and the given children.
func peakRSSMiB(children []int) float64 {
	total := hwmMiB(os.Getpid())
	for _, pid := range children {
		total += hwmMiB(pid)
	}
	return total
}

// processAlive reports whether pid names a live (or zombie) process.
func processAlive(pid int) bool {
	return pid > 0 && syscall.Kill(pid, 0) == nil
}
