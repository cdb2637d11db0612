#!/bin/sh
# Alternating before/after pairs of the repository benchmark:
#   scripts/pairs.sh <base> [-n N] [-seconds S] [-seed FIRST]
#                    [-gate METRIC,...] [-record] [workload...]
# exports <base> into a temporary directory (git archive, removed on
# exit) and builds it and the working tree, each through its own
# benchmark/run.sh, so each has its own .bench_build. For every workload
# (default: all four in BENCHMARK.json) it runs N pairs (default 10) of
# S-second runs (default 20, the contract), pair i on seed FIRST+i
# (default FIRST 1) for both sides, the base first on even i and the
# working tree first on odd i. Each side's records go to its own --out
# file, base.jsonl and head.jsonl in a new .bench_build/pairs-<time>
# directory (printed). It then prints `spongebench compare base head`
# and exits with its status: 1 on a REGRESSION of any end-to-end metric
# under BENCHMARK.json's bounds. -gate METRIC,... makes only those
# metrics' regressions fail the run (every row is still printed).
# -record appends one row per workload and metric to
# BENCH_history.jsonl: commits, Go version, host, N, S and each side's
# median and quartiles. It needs a working tree with nothing but
# BENCH_history.jsonl changed from HEAD, so that the head commit a row
# names is the code that was measured; it refuses before any run.
set -e
cd "$(dirname "$0")/.."
usage() {
	echo "usage: scripts/pairs.sh <base> [-n N] [-seconds S] [-seed FIRST] [-gate METRIC,...] [-record] [workload...]" >&2
	exit 2
}
[ $# -ge 1 ] || usage
base=$(git rev-parse --verify "$1^{commit}")
shift
n=10 seconds=20 seed=1 gate= record=0 workloads=
while [ $# -gt 0 ]; do
	case $1 in
	-n) n=$2; shift 2 ;;
	-seconds) seconds=$2; shift 2 ;;
	-seed) seed=$2; shift 2 ;;
	-gate) gate=$2; shift 2 ;;
	-record) record=1; shift ;;
	-*) usage ;;
	*) workloads="$workloads $1"; shift ;;
	esac
done
[ -n "$workloads" ] || workloads=$(awk -F'"' '/"workloads"/ { in_w = 1 } in_w && /^  \]/ { in_w = 0 } in_w && $2 == "name" { print $4 }' BENCHMARK.json)
if [ "$record" -eq 1 ] && [ -n "$(git status --porcelain -- . ':!BENCH_history.jsonl')" ]; then
	echo "pairs.sh: -record needs a clean working tree (commit the change first)" >&2
	exit 2
fi
head=$(pwd)
out=$head/.bench_build/pairs-$(date +%Y%m%d-%H%M%S)
mkdir -p "$out"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
git archive "$base" | tar -x -C "$tmp"

# run SIDE WORKLOAD SEED: one run of one side, its record appended to
# that side's file. A run with failed operations stops the script.
run() {
	case $1 in base) dir=$tmp ;; head) dir=$head ;; esac
	(cd "$dir" && bash benchmark/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --out "$out/$1.jsonl") >"$out/last.log" 2>&1 || {
		echo "pairs.sh: $1 run of $2 (seed $3) failed:" >&2
		tail -5 "$out/last.log" >&2
		exit 1
	}
	printf '  %-4s %s\n' "$1" "$(tail -1 "$out/last.log")"
}

for w in $workloads; do
	i=0
	while [ "$i" -lt "$n" ]; do
		s=$((seed + i))
		echo "$w pair $((i + 1))/$n, seed $s"
		if [ $((i % 2)) -eq 0 ]; then
			run base "$w" "$s"
			run head "$w" "$s"
		else
			run head "$w" "$s"
			run base "$w" "$s"
		fi
		i=$((i + 1))
	done
done

echo "records: $out/base.jsonl $out/head.jsonl"
status=0
.bench_build/spongebench compare "$out/base.jsonl" "$out/head.jsonl" >"$out/compare.txt" || status=$?
cat "$out/compare.txt"
[ "$status" -le 1 ] || exit "$status"
if [ -n "$gate" ]; then
	status=0
	for m in $(echo "$gate" | tr ',' ' '); do
		if awk -v m="$m" '$2 == m && $NF == "REGRESSION" { found = 1 } END { exit !found }' "$out/compare.txt"; then
			echo "pairs.sh: $m regressed" >&2
			status=1
		fi
	done
fi

if [ "$record" -eq 1 ]; then
	commit=$(git rev-parse HEAD)
	host="\"nproc\":$(nproc),\"cpu\":\"$(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo | head -1)\",\"kernel\":\"$(uname -r)\""
	# A compare row: workload metric bound A-median [A-q1, A-q3] A-n
	# B-median [B-q1, B-q3] B-n change verdict.
	tr -d '[],%' <"$out/compare.txt" | awk -v commit="$commit" -v base="$base" -v go="$(go env GOVERSION)" \
		-v host="$host" -v n="$n" -v s="$seconds" -v date="$(date -u +%Y-%m-%d)" 'NR > 1 {
		printf "{\"source\":\"pairs.sh\",\"date\":\"%s\",\"commit\":\"%s\",\"base\":\"%s\",\"go\":\"%s\",\"host\":{%s},\"n\":%d,\"seconds\":%s,\"workload\":\"%s\",\"metric\":\"%s\",", date, commit, base, go, host, n, s, $1, $2
		printf "\"base_side\":{\"median\":%s,\"q1\":%s,\"q3\":%s},\"head_side\":{\"median\":%s,\"q1\":%s,\"q3\":%s},\"verdict\":\"%s\"}\n", $4, $5, $6, $8, $9, $10, $13
	}' >>BENCH_history.jsonl
	echo "appended $(($(wc -l <"$out/compare.txt") - 1)) rows to BENCH_history.jsonl"
fi
exit "$status"
