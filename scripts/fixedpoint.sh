#!/bin/sh
# The simulator's fixed point across a change:
#   scripts/fixedpoint.sh <base>
# builds cmd/benchtab from <base> (exported into a temporary directory,
# removed on exit) and from the working tree, runs each experiment id
# once on both, and compares the output. The paper's tables and figures,
# the grep-variance, failure and effective-memory analyses, and the
# ablations must match byte for byte; the three sweeps must match with
# their last column — wall ms, the only host-time column — dropped.
# Prints one line per id and exits non-zero on any difference.
set -e
cd "$(dirname "$0")/.."
[ $# -eq 1 ] || { echo "usage: scripts/fixedpoint.sh <base-commit>" >&2; exit 2; }
base=$(git rev-parse --verify "$1^{commit}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/src"
git archive "$base" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/benchtab.base" ./cmd/benchtab)
go build -o "$tmp/benchtab.head" ./cmd/benchtab

# dropLastColumn cuts every table line at the start of its last column,
# found from the table's dashed rule; lines outside tables pass through.
dropLastColumn() {
	awk '
		function out(s) { print (cut ? substr(s, 1, cut - 1) : s) }
		/^-+(  -+)+$/ { match($0, /-+$/); cut = RSTART; if (have) out(prev); out($0); have = 0; next }
		{ if (have) out(prev); if ($0 == "") cut = 0; prev = $0; have = 1 }
		END { if (have) out(prev) }
	'
}

status=0
for id in tab1 tab2 fig1a fig1b fig4 fig5 fig6 grepvar failtab effective ablate faults readahead combine; do
	for side in base head; do
		"$tmp/benchtab.$side" -size 0.1 "$id" >"$tmp/$id.$side"
		case $id in
		faults | readahead | combine)
			dropLastColumn <"$tmp/$id.$side" >"$tmp/$id.$side.cut"
			mv "$tmp/$id.$side.cut" "$tmp/$id.$side"
			;;
		esac
	done
	if cmp -s "$tmp/$id.base" "$tmp/$id.head"; then
		echo "$id: identical"
	else
		echo "$id: DIFFERS"
		diff "$tmp/$id.base" "$tmp/$id.head" | head -20
		status=1
	fi
done
exit $status
