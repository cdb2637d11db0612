#!/bin/sh
# Line accounting for a change, the way CHANGES.md reports it:
#   scripts/loc.sh <base>
# folds `git diff --numstat --no-renames <base>` (working tree included;
# a moved file counts as removed where it was and added where it is)
# into three buckets — non-test Go outside benchmark/, tests, and the rest
# (docs, scripts, JSON, the benchmark module) — and prints added,
# removed and net lines for each. Comment-only hunks are not told apart;
# a PR that claims a code reduction says how much of it was comments.
set -e
cd "$(dirname "$0")/.."
[ $# -eq 1 ] || { echo "usage: scripts/loc.sh <base-commit>" >&2; exit 2; }
git diff --numstat --no-renames "$1" -- . | awk '
	$1 == "-" { next }                      # binary
	{
		b = "docs/scripts/json"
		if ($3 ~ /_test\.go$/) b = "tests"
		else if ($3 ~ /\.go$/ && $3 !~ /^benchmark\//) b = "non-test go"
		add[b] += $1; del[b] += $2
	}
	END {
		n = split("non-test go,tests,docs/scripts/json", order, ",")
		for (i = 1; i <= n; i++) {
			b = order[i]
			printf "%-18s +%-6d -%-6d net %+d\n", b, add[b], del[b], add[b] - del[b]
		}
	}'
