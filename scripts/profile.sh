#!/bin/sh
# CPU and allocation profiles of one benchmark:
#   scripts/profile.sh <package> <benchmark> [go test flags...]
# e.g. scripts/profile.sh ./internal/bench BenchmarkMacroJobs/anchortext
#      scripts/profile.sh ./internal/mapreduce BenchmarkSortBufferZipf -benchtime 50x
# runs the benchmark alone (default -benchtime 5x; later flags win) and
# writes profiles/<package>-<benchmark>.{cpu,alloc}.pprof and the test
# binary they refer to, then prints the top of the CPU profile and of
# the allocated objects. profiles/ is gitignored. Add -memprofilerate 1
# to count every allocation rather than one per 512 KiB.
set -e
cd "$(dirname "$0")/.."
[ $# -ge 2 ] || { echo "usage: scripts/profile.sh <package> <benchmark> [go test flags...]" >&2; exit 2; }
pkg=$1 bench=$2
shift 2
name=$(basename "$pkg")-$(printf '%s' "$bench" | tr -c 'A-Za-z0-9_.-' '_')
out=profiles
mkdir -p "$out"
go test "$pkg" -run '^$' -bench "^$(printf '%s' "$bench" | sed 's,/,$/^,g')\$" -benchtime 5x -benchmem \
	-o "$out/$name.test" -cpuprofile "$out/$name.cpu.pprof" -memprofile "$out/$name.alloc.pprof" "$@"
echo "== CPU: $out/$name.cpu.pprof =="
go tool pprof -top -nodecount 25 "$out/$name.test" "$out/$name.cpu.pprof" 2>/dev/null
echo "== allocated objects: $out/$name.alloc.pprof =="
go tool pprof -top -nodecount 25 -sample_index alloc_objects "$out/$name.test" "$out/$name.alloc.pprof" 2>/dev/null
