#!/bin/sh
# Macro perf harness: measures the host-level cost (wall-clock, allocs/op,
# bytes/op) of one run of each paper job and emits BENCH_macro.json.
#
# Environment knobs:
#
#   BENCH_SIZE=0.05   dataset scale factor
#   BENCH_WORKERS=8   cluster size
#   BENCH_OUT=BENCH_macro.json   report path ("-" = stdout only)
set -e
cd "$(dirname "$0")/.."

SIZE="${BENCH_SIZE:-0.05}"
WORKERS="${BENCH_WORKERS:-8}"
OUT="${BENCH_OUT:-BENCH_macro.json}"

if [ "$OUT" = "-" ]; then
	go run ./cmd/benchtab -perfsize "$SIZE" -workers "$WORKERS" perf
else
	go run ./cmd/benchtab -perfsize "$SIZE" -workers "$WORKERS" -out "$OUT" perf
fi
