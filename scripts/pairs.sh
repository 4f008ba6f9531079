#!/bin/sh
# Alternating baseline/candidate runs of one benchmark workload.
#
#   scripts/pairs.sh BASE WORKLOAD [N] [SEEDS] [METRIC]
#
# Builds the benchmark binary twice: once from the tree committed at BASE
# (exported with git archive into a temporary directory, so nothing is left
# in the repository's .git) and once from the working tree. It then runs
# the two binaries N times each, alternating ABBA so that a drift of the
# host cancels, into pairs.base.json and pairs.head.json (-o) in the
# current directory, and prints -compare of the two files. Each pair i runs
# seed i mod len(SEEDS) of the space-separated SEEDS list on both sides.
# Every run lasts BENCHMARK.json's run_seconds, the length the benchmark's
# own comparison uses (the binary's -seconds default differs).
# Last, it prints METRIC's value on each side of every pair for every
# workload the runs reported (W=all runs six), and per workload on how many
# pairs the candidate read lower and higher.
#
# Defaults: N=10, SEEDS=1, METRIC=bytes_moved. `make pairs BASE=<rev>
# W=<workload>` calls it.
set -eu

base=${1:?usage: pairs.sh BASE WORKLOAD [N] [SEEDS] [METRIC]}
workload=${2:?usage: pairs.sh BASE WORKLOAD [N] [SEEDS] [METRIC]}
n=${3:-10}
seeds=${4:-1}
metric=${5:-bytes_moved}

root=$(cd "$(dirname "$0")/.." && pwd)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$root/BENCHMARK.json")
: "${seconds:?pairs: no run_seconds in BENCHMARK.json}"
outdir=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

mkdir "$tmp/src"
git -C "$root" archive "$base" | tar -x -C "$tmp/src"
go build -C "$tmp/src/benchmark" -o "$tmp/base" .
go build -C "$root/benchmark" -o "$tmp/head" .
rm -f "$outdir/pairs.base.json" "$outdir/pairs.head.json"

# run SIDE SEED: one run of a side's binary, appended to its result file;
# prints one "WORKLOAD VALUE" line per workload of the run. The benchmark
# prints each workload's report under a "== WORKLOAD" header and ends it
# with one JSON object, the line METRIC is read from ("-" when absent).
run() {
	(cd "$tmp" && "$tmp/$1" -workload "$workload" -seed "$2" -seconds "$seconds" \
		-o "$outdir/pairs.$1.json" >"$tmp/$1.log" 2>&1) || {
		echo "pairs: the $1 run failed; its output:" >&2
		cat "$tmp/$1.log" >&2
		exit 1
	}
	awk -v m="$metric" '
		/^== / { w = $2 }
		/^\{/ {
			v = "-"
			if (match($0, "\"" m "\":\\{\"value\":[^,}]*")) {
				v = substr($0, RSTART, RLENGTH)
				sub(/.*:/, "", v)
			}
			print w, v
		}' "$tmp/$1.log"
}

nseeds=$(echo $seeds | wc -w)
i=0
: >"$tmp/rows"
while [ "$i" -lt "$n" ]; do
	seed=$(echo $seeds | cut -d' ' -f$((i % nseeds + 1)))
	if [ $(( i % 2 )) -eq 0 ]; then
		run base "$seed" >"$tmp/a"
		run head "$seed" >"$tmp/b"
	else
		run head "$seed" >"$tmp/b"
		run base "$seed" >"$tmp/a"
	fi
	# One row per workload: pair seed workload base head.
	paste -d' ' "$tmp/a" "$tmp/b" | awk -v p=$((i + 1)) -v s="$seed" '
		$1 != $3 { print "pairs: pair " p ": base reported " $1 " where head reported " $3 > "/dev/stderr"; exit 1 }
		{ print p, s, $1, $2, $4 }' >"$tmp/pair"
	awk -v n="$n" -v m="$metric" '{ printf "pair %d/%d seed %s %s: %s base %s head %s\n", $1, n, $2, $3, m, $4, $5 }' "$tmp/pair" >&2
	cat "$tmp/pair" >>"$tmp/rows"
	i=$((i + 1))
done

echo "== -compare pairs.base.json pairs.head.json"
status=0
"$tmp/head" -compare "$outdir/pairs.base.json" "$outdir/pairs.head.json" || status=$?
echo "== $metric per pair and workload ($workload, base $base vs working tree)"
awk -v m="$metric" '
	!($3 in pairs) { order[++k] = $3 }
	{
		pairs[$3]++
		d = ($4 == "-" || $5 == "-") ? "n/a" : sprintf("%+.1f%%", ($4 != 0 ? ($5 - $4) / $4 * 100 : 0))
		printf "pair %2d  seed %-4s  %-13s  base %-14s  head %-14s  %s\n", $1, $2, $3, $4, $5, d
		if (d != "n/a") {
			if ($5 + 0 < $4 + 0) lower[$3]++
			else if ($5 + 0 > $4 + 0) higher[$3]++
		}
	}
	END {
		for (j = 1; j <= k; j++) {
			w = order[j]
			printf "%-13s  %s: head lower in %d of %d pairs, higher in %d\n", w, m, lower[w], pairs[w], higher[w]
		}
	}' "$tmp/rows"
exit "$status"
