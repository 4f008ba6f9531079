#!/bin/sh
# Code-layout check for a benchmark move the diff cannot explain.
#
#   scripts/layout.sh [BASE]
#
# Builds the benchmark binary twice, once from the tree committed at BASE
# (exported with git archive into a temporary directory) and once from the
# working tree, and prints for each of internal/core, ompss, internal/vm,
# internal/kernels/color, internal/kernels/md5, internal/kernels/rotate and
# the benchmark's own main the address of its first text symbol (go tool
# nm -n -size), that address mod 64, and the package's summed text size,
# BASE beside the working tree. A package whose offset mod 64 moved has hot loops on other
# cache-line boundaries: a reference-ratio or setup_s move on a workload
# that never runs the changed code is layout until shown otherwise.
# internal/core links early, so a change there can shift every later one.
#
# Default BASE=HEAD. Everything it builds stays in a temporary directory;
# it writes nothing to the repository. `make layout BASE=<rev>` calls it.
set -eu

base=${1:-HEAD}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

mkdir "$tmp/src"
git -C "$root" archive "$base" | tar -x -C "$tmp/src"
go build -C "$tmp/src/benchmark" -o "$tmp/base" .
go build -C "$root/benchmark" -o "$tmp/head" .

# table SIDE: one "package address mod64 size" line per package, from the
# address-sorted symbol table; text symbols only (T/t), first one wins.
table() {
	go tool nm -n -size "$tmp/$1" | awk '
		function hex(s,   i, v) {
			v = 0
			for (i = 1; i <= length(s); i++)
				v = v * 16 + index("0123456789abcdef", tolower(substr(s, i, 1))) - 1
			return v
		}
		BEGIN {
			n = split("ompssgo/internal/core ompssgo/ompss ompssgo/internal/vm ompssgo/internal/kernels/color ompssgo/internal/kernels/md5 ompssgo/internal/kernels/rotate main", pkgs, " ")
		}
		$3 == "T" || $3 == "t" {
			for (i = 1; i <= n; i++) {
				if (index($4, pkgs[i] ".") == 1) {
					if (!(i in addr)) addr[i] = $1
					size[i] += $2
				}
			}
		}
		END {
			for (i = 1; i <= n; i++) {
				if (i in addr) printf "%s %s %d %d\n", pkgs[i], addr[i], hex(addr[i]) % 64, size[i]
				else printf "%s - - -\n", pkgs[i]
			}
		}'
}

table base >"$tmp/base.txt"
table head >"$tmp/head.txt"
echo "== first text symbol per package: $base vs working tree"
printf '%-32s  %10s %5s %8s   %10s %5s %8s   %s\n' package "base addr" mod64 size "head addr" mod64 size moved
paste -d' ' "$tmp/base.txt" "$tmp/head.txt" | awk '{
	moved = ($3 == $7) ? "" : "mod 64 moved"
	printf "%-32s  %10s %5s %8s   %10s %5s %8s   %s\n", $1, $2, $3, $4, $6, $7, $8, moved
}'
