#!/bin/sh
# Checks that the suite's spawn loops keep their clauses on the stack:
#
#   scripts/escape.sh
#
# A clause built in the call to a concrete *TC's Task or Go costs
# no allocation only while the compiler inlines its constructor and proves
# that the clause record (&ompss.clause{...}) and the variadic key slice of
# In/Out/InOut do not outlive the call. An interface call, a
# clause appended to a slice, or a constructor that stops inlining puts them
# back on the heap, once per spawn. So the script reads the escape analysis
# of `go build -gcflags=-m` and fails when
#
#   - a clause constructor of package ompss is not inlinable, or
#   - a clause record or a clause's variadic slice escapes inside a for loop
#     of internal/suite, printing its file:line.
#
# A clause built once outside every loop may escape (kmeans builds its
# reduction's clauses once per run). `make escape` and the CI bench-smoke job
# call it.
set -eu
cd "$(dirname "$0")/.."
GO=${GO:-go}

ctors='In Out InOut InSized OutSized Cost Priority Label If'
out=$($GO build -gcflags=-m ./ompss 2>&1) || { echo "$out" >&2; exit 1; }
for c in $ctors; do
	echo "$out" | grep -Eq "^ompss/clause\.go:[0-9]+:[0-9]+: can inline $c\$" ||
		{ echo "escape: ompss.$c is not inlinable, so every clause it builds is a heap record" >&2; exit 1; }
done

out=$($GO build -gcflags=-m ./internal/suite/... 2>&1) || { echo "$out" >&2; exit 1; }
sites=$(echo "$out" | awk '
	{ at = $0; sub(/: .*/, "", at) }
	/: inlining call to ompss\.(In|Out|InOut)$/ { variadic[at] = 1 }
	/: &ompss\.clause\{\.\.\.\} escapes to heap$/ { esc[at] = 1 }
	/: \.\.\. argument escapes to heap$/ { arg[at] = 1 }
	END {
		for (k in esc) print k
		for (k in arg) if (k in variadic) print k
	}' | sort -u)

bad=0
for s in $sites; do
	file=${s%%:*}
	rest=${s#*:}
	line=${rest%%:*}
	# Is the line inside a for block? Track the open braces, each marked by
	# whether the line that opened it starts a for statement; strings and
	# comments are dropped first.
	inloop=$(awk -v want="$line" '
		NR == want { for (i = 1; i <= d; i++) if (loop[i]) { print 1; exit } print 0; exit }
		{
			l = $0
			gsub(/"([^"\\]|\\.)*"|`[^`]*`|'\''([^'\''\\]|\\.)*'\''/, "", l)
			sub(/\/\/.*/, "", l)
			isfor = l ~ /^[ \t]*for([ \t]|\{|$)/
			n = length(l)
			for (i = 1; i <= n; i++) {
				ch = substr(l, i, 1)
				if (ch == "{") loop[++d] = isfor
				else if (ch == "}") d--
			}
		}' "$file")
	if [ "$inloop" = 1 ]; then
		echo "$s: a clause escapes to the heap in a loop" >&2
		bad=1
	fi
done
exit $bad
