#!/usr/bin/env bash
# Host memory of one benchmark run, process by process:
#   scripts/memtrace.sh <workload> [seconds] [seed]
# runs `bash benchmark/run.sh --workload W --seconds S --trace 0 --seed N`
# (default 20 s, seed 1) and every 0.2 s samples each benchmark process
# under it — the client, its child daemons (`serve`) and macro-sim's
# `macro-pass` workers — from /proc: VmHWM, RssAnon and RssShmem, and
# the number of shared-memory file mappings (memfd or /dev/shm: pool
# slabs and passed descriptors). It prints one row per process with the
# peak of each over its samples and its mapping count at its last
# sample, then the largest of each role, then the run's result line.
# The benchmark's own standard error passes through.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -lt 1 ] || [ $# -gt 3 ]; then
	echo "usage: scripts/memtrace.sh <workload> [seconds] [seed]" >&2
	exit 2
fi
workload=$1 seconds=${2:-20} seed=${3:-1}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
: >"$tmp/samples"

bash benchmark/run.sh --workload "$workload" --seconds "$seconds" --trace 0 --seed "$seed" >"$tmp/out" &
root=$!

# sample appends a line per live benchmark process under root:
# pid, role, VmHWM, RssAnon, RssShmem (kB), shared-memory mappings.
sample() {
	local pid role maps
	for pid in $(ps -e -o pid=,ppid= | awk -v root="$root" '
		{ parent[$1] = $2 }
		END {
			keep[root] = 1
			do {
				n = 0
				for (p in parent)
					if (!(p in keep) && (parent[p] in keep)) { keep[p] = 1; n++ }
			} while (n)
			for (p in keep) print p
		}'); do
		# Before run.sh execs the benchmark, root is bash and go builds.
		[ "$(cat "/proc/$pid/comm" 2>/dev/null)" = spongebench ] || continue
		role=$(tr '\0' '\n' <"/proc/$pid/cmdline" 2>/dev/null | sed -n 2p) || continue
		case $role in serve | macro-pass) ;; *) role=client ;; esac
		maps=$(grep -cE ' (/memfd:|/dev/shm/)' "/proc/$pid/maps" 2>/dev/null) || true
		awk -v pid="$pid" -v role="$role" -v maps="${maps:-0}" '
			/^VmHWM:/ { h = $2 }
			/^RssAnon:/ { a = $2 }
			/^RssShmem:/ { s = $2 }
			END { if (h != "") print pid, role, h, a, s, maps }' "/proc/$pid/status" 2>/dev/null || true
	done >>"$tmp/samples"
}

while kill -0 "$root" 2>/dev/null; do
	sample
	sleep 0.2
done
status=0
wait "$root" || status=$?

awk '
	function mib(kb) { return sprintf("%.1f", kb / 1024) }
	{
		k = $1
		if (!(k in role)) { h[k] = $3; a[k] = $4; s[k] = $5; m[k] = $6 }
		role[k] = $2; n[k]++; last[k] = $6
		if ($3 > h[k]) h[k] = $3
		if ($4 > a[k]) a[k] = $4
		if ($5 > s[k]) s[k] = $5
		if ($6 > m[k]) m[k] = $6
	}
	END {
		fmt = "%-8s %-10s %10s %12s %13s %9s %9s %8s\n"
		printf fmt, "pid", "role", "VmHWM MiB", "RssAnon MiB", "RssShmem MiB", "maps max", "maps end", "samples"
		for (k in role) {
			printf fmt, k, role[k], mib(h[k]), mib(a[k]), mib(s[k]), m[k], last[k], n[k] | "sort -n"
			r = role[k]
			if (!(r in procs)) { rh[r] = h[k]; ra[r] = a[k]; rs[r] = s[k]; rm[r] = m[k]; rl[r] = last[k] }
			procs[r]++
			if (h[k] > rh[r]) rh[r] = h[k]
			if (a[k] > ra[r]) ra[r] = a[k]
			if (s[k] > rs[r]) rs[r] = s[k]
			if (m[k] > rm[r]) rm[r] = m[k]
			if (last[k] > rl[r]) rl[r] = last[k]
		}
		close("sort -n")
		for (r in procs)
			printf fmt, "max", r, mib(rh[r]), mib(ra[r]), mib(rs[r]), rm[r], rl[r], procs[r] " procs"
	}' "$tmp/samples"
tail -n 1 "$tmp/out"
exit "$status"
