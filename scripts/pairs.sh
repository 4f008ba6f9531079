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
# Last, it prints METRIC's value on each side of every pair, and on how
# many pairs the candidate read lower and higher.
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
# prints METRIC's value, read from the run's last line (one JSON object).
run() {
	(cd "$tmp" && "$tmp/$1" -workload "$workload" -seed "$2" -seconds "$seconds" \
		-o "$outdir/pairs.$1.json" >"$tmp/$1.log" 2>&1) || {
		echo "pairs: the $1 run failed; its output:" >&2
		cat "$tmp/$1.log" >&2
		exit 1
	}
	tail -n 1 "$tmp/$1.log" | sed -n "s/.*\"$metric\":{\"value\":\([^,}]*\).*/\1/p"
}

nseeds=$(echo $seeds | wc -w)
i=0
rows=""
while [ "$i" -lt "$n" ]; do
	seed=$(echo $seeds | cut -d' ' -f$((i % nseeds + 1)))
	if [ $(( i % 2 )) -eq 0 ]; then
		a=$(run base "$seed")
		b=$(run head "$seed")
	else
		b=$(run head "$seed")
		a=$(run base "$seed")
	fi
	echo "pair $((i + 1))/$n seed $seed: $metric base $a head $b" >&2
	rows="$rows$((i + 1)) $seed $a $b
"
	i=$((i + 1))
done

echo "== -compare pairs.base.json pairs.head.json"
status=0
"$tmp/head" -compare "$outdir/pairs.base.json" "$outdir/pairs.head.json" || status=$?
echo "== $metric per pair ($workload, base $base vs working tree)"
printf '%s' "$rows" | awk -v m="$metric" '
	{ printf "pair %2d  seed %-4s  base %-14s  head %-14s  %+.1f%%\n", $1, $2, $3, $4, ($3 != 0 ? ($4 - $3) / $3 * 100 : 0)
	  if ($4 < $3) lower++; else if ($4 > $3) higher++ }
	END { printf "%s: head lower in %d of %d pairs, higher in %d\n", m, lower, NR, higher }'
exit "$status"
